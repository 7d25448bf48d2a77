// Package lint is xvolt's determinism & invariant analyzer suite: a
// stdlib-only static-analysis framework (go/parser + go/types over a
// single shared type-checked load) plus the project-specific analyzers
// that turn the campaign engine's determinism guarantees — bit-identical
// results at any worker count, CampaignSeed-derived RNG streams, sorted
// ordered output — into machine-checkable rules that fail CI.
//
// The framework mirrors go vet's shape without importing x/tools: each
// Analyzer runs once per package over the shared load, may export facts
// about package-level objects that later (dependent) packages import,
// and reports findings as `file:line: [analyzer] message`. Suppression
// is explicit and audited: a `//xvolt:lint-ignore <analyzer> <reason>`
// pragma on the finding's line or the line above silences it, and every
// suppression is counted and reported, never silent.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named rule. Run is invoked once per loaded package, in
// dependency order, so facts exported while analyzing a package are
// visible when its dependents are analyzed.
type Analyzer struct {
	// Name identifies the analyzer in findings and pragmas.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run analyzes one package via the pass.
	Run func(*Pass) error
	// IncludeTests makes the analyzer visit *_test.go files too. The
	// default (false) matches the suite's contract: test files may use
	// wall clocks, literal seeds and unchecked closes freely.
	IncludeTests bool
}

// Finding is one reported violation.
type Finding struct {
	Pos token.Position
	// Pkg is the import path of the package the finding was reported in —
	// the primary sort key, so diagnostics group by package regardless of
	// how files interleave lexically across directories.
	Pkg      string
	Analyzer string
	Message  string
	// Suppressed marks findings silenced by a lint-ignore pragma; they
	// are excluded from exit-code semantics but still counted.
	Suppressed bool
	// Reason carries the pragma justification for suppressed findings.
	Reason string
}

// String renders the go vet-style diagnostic line.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	prog     *Program
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Pkg:      p.Pkg.Path(),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file containing pos is a *_test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// ExportFact attaches a named fact to a package-level object. Facts are
// keyed by the object's qualified name, so they survive across packages
// in the shared load (the importing package sees the same key).
func (p *Pass) ExportFact(obj types.Object, value any) {
	p.prog.facts.set(p.Analyzer.Name, objKey(obj), value)
}

// ImportFact retrieves a fact exported for obj by this analyzer — in
// this package or any package already analyzed (dependencies run
// first).
func (p *Pass) ImportFact(obj types.Object) (any, bool) {
	return p.prog.facts.get(p.Analyzer.Name, objKey(obj))
}

// objKey is the cross-package fact key: "pkgpath.ObjectName".
func objKey(obj types.Object) string {
	if obj == nil {
		return ""
	}
	if obj.Pkg() == nil {
		return obj.Name() // universe scope
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// factStore holds analyzer → object-key → fact.
type factStore struct {
	m map[string]map[string]any
}

func newFactStore() *factStore { return &factStore{m: map[string]map[string]any{}} }

func (s *factStore) set(analyzer, key string, v any) {
	inner, ok := s.m[analyzer]
	if !ok {
		inner = map[string]any{}
		s.m[analyzer] = inner
	}
	inner[key] = v
}

func (s *factStore) get(analyzer, key string) (any, bool) {
	v, ok := s.m[analyzer][key]
	return v, ok
}

// Result is a whole-suite run: findings (active and suppressed) plus
// pragma bookkeeping.
type Result struct {
	// Findings holds every active (unsuppressed) finding, sorted by
	// position then analyzer.
	Findings []Finding
	// Suppressed holds findings silenced by pragmas, same order.
	Suppressed []Finding
	// UnusedPragmas lists well-formed pragmas that matched no finding.
	UnusedPragmas []Finding
	// Unaudited lists suppressions the repository's audited set
	// (audit.go) does not name.
	Unaudited []Finding
	// Pragmas lists every well-formed lint-ignore pragma with its audit
	// state (used or stale), for the -pragmas listing.
	Pragmas []PragmaInfo
}

// Run executes the analyzers over every package of the program, applies
// pragma suppression, and returns the combined result. Malformed pragmas
// are reported as findings of the pseudo-analyzer "pragma".
func Run(prog *Program, analyzers []*Analyzer) (*Result, error) {
	var raw []Finding
	for _, pkg := range prog.Packages {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     prog.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				prog:     prog,
				findings: &raw,
			}
			before := len(raw)
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
			if !a.IncludeTests {
				kept := raw[:before]
				for _, f := range raw[before:] {
					if !strings.HasSuffix(f.Pos.Filename, "_test.go") {
						kept = append(kept, f)
					}
				}
				raw = kept
			}
		}
	}

	pragmas, malformed := collectPragmas(prog)
	raw = append(raw, malformed...)

	res := &Result{}
	for _, f := range raw {
		if p := pragmas.match(f); p != nil {
			p.used = true
			f.Suppressed = true
			f.Reason = p.reason
			res.Suppressed = append(res.Suppressed, f)
			continue
		}
		res.Findings = append(res.Findings, f)
	}
	res.UnusedPragmas = pragmas.unused()
	res.Pragmas = pragmas.infos()

	for _, fs := range [][]Finding{res.Findings, res.Suppressed, res.UnusedPragmas} {
		sortFindings(fs)
	}
	res.Unaudited = unaudited(res.Suppressed)
	return res, nil
}

// sortFindings orders diagnostics by (package, file, line, column,
// analyzer) — the pinned ordering of the -json schema.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
