// Command xvolt-lint runs the determinism & invariant analyzer suite
// over the repository, with go vet exit-code semantics: findings print
// as `file:line: [analyzer] message` and exit with status 1, internal
// errors exit 2, a clean tree exits 0.
//
// Usage:
//
//	go run ./cmd/xvolt-lint ./...
//	go run ./cmd/xvolt-lint -json ./... | jq .analyzer
//	go run ./cmd/xvolt-lint -pragmas ./...   # audit active suppressions
//	go run ./cmd/xvolt-lint -github ./...    # GitHub Actions annotations
//
// Suppressions (`//xvolt:lint-ignore <analyzer> <reason>`) are audited:
// every suppression is reported to stderr, a pragma that suppresses
// nothing is itself a finding, and -pragmas lists every active pragma
// with its justification.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"xvolt/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON object per finding instead of text")
	pragmas := flag.Bool("pragmas", false, "list lint-ignore pragmas with their justifications and exit")
	github := flag.Bool("github", false, "render findings as GitHub Actions error annotations")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	opt := options{json: *jsonOut, github: *github, pragmas: *pragmas}
	os.Exit(run(os.Stdout, os.Stderr, opt, patterns))
}

// options selects the output mode.
type options struct {
	json    bool // JSON lines instead of text
	github  bool // GitHub Actions ::error annotations
	pragmas bool // audit pragmas instead of reporting findings
}

// jsonFinding is the -json line schema. It is pinned by a golden test:
// field names, order and omitempty behavior are a contract for the
// downstream obs/trace tooling and the CI annotation step.
type jsonFinding struct {
	Pkg        string `json:"pkg"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// jsonPragma is the -pragmas -json line schema.
type jsonPragma struct {
	Pkg      string `json:"pkg"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Reason   string `json:"reason"`
	Used     bool   `json:"used"`
}

func run(out, errw io.Writer, opt options, patterns []string) int {
	prog, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(errw, "xvolt-lint:", err)
		return 2
	}
	res, err := lint.Run(prog, lint.Suite(lint.DefaultConfig()))
	if err != nil {
		fmt.Fprintln(errw, "xvolt-lint:", err)
		return 2
	}
	if opt.pragmas {
		return reportPragmas(out, opt, res)
	}
	return report(out, errw, opt, res)
}

// report renders a result and returns the process exit code.
func report(out, errw io.Writer, opt options, res *lint.Result) int {
	// Unused and unaudited pragmas are findings: a suppression that
	// suppresses nothing is stale and hides the next real violation at
	// that site, and one the audited set does not list was never reviewed.
	active := append(append(res.Findings, res.UnusedPragmas...), res.Unaudited...)

	enc := json.NewEncoder(out)
	emit := func(f lint.Finding) {
		switch {
		case opt.json:
			_ = enc.Encode(jsonFinding{
				Pkg: f.Pkg, File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
				Analyzer: f.Analyzer, Message: f.Message,
				Suppressed: f.Suppressed, Reason: f.Reason,
			})
		case opt.github:
			fmt.Fprintf(out, "::error file=%s,line=%d,col=%d::%s\n",
				f.Pos.Filename, f.Pos.Line, f.Pos.Column,
				githubEscape(fmt.Sprintf("[%s] %s", f.Analyzer, f.Message)))
		default:
			fmt.Fprintln(out, f)
		}
	}
	for _, f := range active {
		emit(f)
	}
	for _, f := range res.Suppressed {
		if opt.json {
			emit(f)
		} else {
			fmt.Fprintf(errw, "suppressed: %s (reason: %s)\n", f, f.Reason)
		}
	}
	if n := len(res.Suppressed); n > 0 {
		fmt.Fprintf(errw, "xvolt-lint: %d finding(s) suppressed by pragmas\n", n)
	}
	if len(active) > 0 {
		fmt.Fprintf(errw, "xvolt-lint: %d finding(s)\n", len(active))
		return 1
	}
	return 0
}

// reportPragmas lists every well-formed pragma with its justification and
// whether it fired. The audit always exits 0 — staleness already fails
// the normal run as an unused-pragma finding.
func reportPragmas(out io.Writer, opt options, res *lint.Result) int {
	enc := json.NewEncoder(out)
	for _, p := range res.Pragmas {
		if opt.json {
			_ = enc.Encode(jsonPragma{
				Pkg: p.Pkg, File: p.Pos.Filename, Line: p.Pos.Line,
				Analyzer: p.Analyzer, Reason: p.Reason, Used: p.Used,
			})
			continue
		}
		state := "used"
		if !p.Used {
			state = "stale"
		}
		fmt.Fprintf(out, "%s:%d: [%s] %s — %s\n",
			p.Pos.Filename, p.Pos.Line, p.Analyzer, state, p.Reason)
	}
	return 0
}

// githubEscape encodes a message for a GitHub Actions workflow command
// (the documented %, CR, LF data escapes).
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}
