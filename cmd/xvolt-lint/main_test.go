package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"xvolt/internal/lint"
)

// sample builds a synthetic result: one active finding, one unused
// pragma, one suppressed finding, and the pragma audit entries.
func sample() *lint.Result {
	pos := func(file string, line, col int) token.Position {
		return token.Position{Filename: file, Line: line, Column: col}
	}
	return &lint.Result{
		Findings: []lint.Finding{{
			Pos: pos("a.go", 12, 3), Pkg: "xvolt/internal/core", Analyzer: "detrand",
			Message: "time.Now in deterministic package",
		}},
		Suppressed: []lint.Finding{{
			Pos: pos("b.go", 7, 2), Pkg: "xvolt/internal/obs", Analyzer: "errclose",
			Message: "error from os.File.Close discarded",
			Reason:  "demo", Suppressed: true,
		}},
		UnusedPragmas: []lint.Finding{{
			Pos: pos("c.go", 3, 1), Pkg: "xvolt/internal/trace", Analyzer: "pragma",
			Message: "lint-ignore pragma for maporder suppresses nothing; remove it",
		}},
		Pragmas: []lint.PragmaInfo{
			{Pos: pos("b.go", 7, 2), Pkg: "xvolt/internal/obs", Analyzer: "errclose", Reason: "demo", Used: true},
			{Pos: pos("c.go", 3, 1), Pkg: "xvolt/internal/trace", Analyzer: "maporder", Reason: "stale demo", Used: false},
		},
	}
}

func TestReportText(t *testing.T) {
	var out, errw bytes.Buffer
	if code := report(&out, &errw, options{}, sample()); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	wantLines := []string{
		"a.go:12: [detrand] time.Now in deterministic package",
		"c.go:3: [pragma] lint-ignore pragma for maporder suppresses nothing; remove it",
	}
	for _, w := range wantLines {
		if !strings.Contains(out.String(), w) {
			t.Errorf("stdout missing %q:\n%s", w, out.String())
		}
	}
	if !strings.Contains(errw.String(), "1 finding(s) suppressed by pragmas") {
		t.Errorf("stderr missing suppression audit:\n%s", errw.String())
	}
	if !strings.Contains(errw.String(), "reason: demo") {
		t.Errorf("stderr missing suppression reason:\n%s", errw.String())
	}
}

func TestReportJSON(t *testing.T) {
	var out, errw bytes.Buffer
	if code := report(&out, &errw, options{json: true}, sample()); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var lines []jsonFinding
	dec := json.NewDecoder(&out)
	for dec.More() {
		var f jsonFinding
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("bad JSON line: %v", err)
		}
		lines = append(lines, f)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d JSON findings, want 3 (active + unused pragma + suppressed)", len(lines))
	}
	if lines[0].File != "a.go" || lines[0].Line != 12 || lines[0].Analyzer != "detrand" {
		t.Errorf("first finding = %+v", lines[0])
	}
	if lines[0].Pkg != "xvolt/internal/core" || lines[0].Col != 3 {
		t.Errorf("pkg/col not carried: %+v", lines[0])
	}
	last := lines[len(lines)-1]
	if !last.Suppressed || last.Reason != "demo" {
		t.Errorf("suppressed finding not audited in JSON: %+v", last)
	}
}

// TestJSONSchemaPinned is the golden for the -json line schema: field
// names, order and omitempty are a contract for downstream tooling and
// the CI annotation step. Changing this output is a breaking change.
func TestJSONSchemaPinned(t *testing.T) {
	var out, errw bytes.Buffer
	if code := report(&out, &errw, options{json: true}, sample()); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := []string{
		`{"pkg":"xvolt/internal/core","file":"a.go","line":12,"col":3,"analyzer":"detrand","message":"time.Now in deterministic package"}`,
		`{"pkg":"xvolt/internal/trace","file":"c.go","line":3,"col":1,"analyzer":"pragma","message":"lint-ignore pragma for maporder suppresses nothing; remove it"}`,
		`{"pkg":"xvolt/internal/obs","file":"b.go","line":7,"col":2,"analyzer":"errclose","message":"error from os.File.Close discarded","suppressed":true,"reason":"demo"}`,
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("schema drift on line %d:\n got %s\nwant %s", i+1, lines[i], w)
		}
	}
}

func TestReportGitHubAnnotations(t *testing.T) {
	var out, errw bytes.Buffer
	if code := report(&out, &errw, options{github: true}, sample()); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	want := "::error file=a.go,line=12,col=3::[detrand] time.Now in deterministic package"
	if !strings.Contains(out.String(), want) {
		t.Errorf("stdout missing annotation %q:\n%s", want, out.String())
	}
	if strings.Contains(out.String(), "a.go:12: [detrand]") {
		t.Errorf("github mode also printed plain text:\n%s", out.String())
	}
}

func TestGitHubEscape(t *testing.T) {
	got := githubEscape("50% done\nnext line")
	want := "50%25 done%0Anext line"
	if got != want {
		t.Errorf("githubEscape = %q, want %q", got, want)
	}
}

func TestReportPragmasText(t *testing.T) {
	var out bytes.Buffer
	if code := reportPragmas(&out, options{}, sample()); code != 0 {
		t.Fatalf("exit = %d, want 0 (audit mode never fails)", code)
	}
	for _, w := range []string{
		"b.go:7: [errclose] used — demo",
		"c.go:3: [maporder] stale — stale demo",
	} {
		if !strings.Contains(out.String(), w) {
			t.Errorf("audit missing %q:\n%s", w, out.String())
		}
	}
}

func TestReportPragmasJSON(t *testing.T) {
	var out bytes.Buffer
	if code := reportPragmas(&out, options{json: true}, sample()); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	var lines []jsonPragma
	dec := json.NewDecoder(&out)
	for dec.More() {
		var p jsonPragma
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("bad JSON line: %v", err)
		}
		lines = append(lines, p)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d pragmas, want 2", len(lines))
	}
	if !lines[0].Used || lines[0].Reason != "demo" {
		t.Errorf("first pragma = %+v", lines[0])
	}
	if lines[1].Used {
		t.Errorf("stale pragma reported as used: %+v", lines[1])
	}
}

func TestReportCleanExitsZero(t *testing.T) {
	var out, errw bytes.Buffer
	if code := report(&out, &errw, options{}, &lint.Result{}); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if out.Len() != 0 {
		t.Errorf("clean run produced output: %s", out.String())
	}
}

// TestLintSelf runs the real driver end to end over this command's own
// package — a load + suite smoke test with go vet exit semantics.
func TestLintSelf(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, options{}, []string{"xvolt/cmd/xvolt-lint"}); code != 0 {
		t.Fatalf("xvolt-lint on itself: exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
}

// TestReportUnauditedFails: a suppression the audited set does not list
// fails the run like a finding, even with nothing else to report.
func TestReportUnauditedFails(t *testing.T) {
	res := &lint.Result{Unaudited: []lint.Finding{{
		Pos: token.Position{Filename: "d.go", Line: 4, Column: 1}, Pkg: "xvolt/internal/fleet", Analyzer: "pragma",
		Message: "suppression not in the audited set (internal/lint/audit.go): [unusedexport] func F has no reference outside tests",
	}}}
	var out, errw bytes.Buffer
	if code := report(&out, &errw, options{}, res); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "d.go:4: [pragma] suppression not in the audited set") {
		t.Errorf("unaudited suppression not printed:\n%s", out.String())
	}
}
