// Package analysis is mhavet's domain-aware static-analysis framework: a
// stdlib-only (go/parser + go/types, no golang.org/x/tools) driver plus
// the analyzers that machine-check the repository's reproducibility
// contract.
//
// The simulator's core guarantee — the cost model and the staged iopath
// pipeline produce bit-for-bit identical virtual-time figures across runs
// — is a property of the whole codebase, not of any single package:
// one wall-clock read or one aliased request descriptor anywhere on the
// request path silently breaks it. The analyzers encode those invariants
// so refactors are checked by machine rather than by review convention:
//
//   - determinism — no wall-clock (time.Now and friends) and no
//     unseeded global math/rand anywhere in the module; wall-clock is
//     permitted only in the packages listed in WallclockAllowedPackages
//     (see scopes.go) or under an explicit allow comment;
//   - unitscheck — magic byte-size literals (64*1024, 1<<20, 1048576)
//     must use the internal/units constants instead;
//   - extentcheck — extent arithmetic packages must not truncate int64
//     offsets/lengths into narrower integers or compute raw off+len
//     ends that can overflow (use units.End);
//   - stagecheck — iopath pipeline invariants: the shared chain snapshot
//     is immutable, requests are constructed only by the pipeline's
//     owners, and child requests never alias a parent's completion
//     callback or server binding;
//   - poolcheck — pooled iopath request descriptors must pass through
//     Reset() before Pipeline.put returns them to the free list, in the
//     same function and before the put;
//   - concurrency — go statements and sync/sync-atomic imports are
//     confined to the packages in ConcurrencyAllowedPackages; everything
//     else must fan out through internal/parfan's deterministic ordered
//     pool.
//
// A finding can be suppressed at the finding site with a comment on the
// same line or the line above:
//
//	//mhavet:allow <rule> [rule...]
//
// where <rule> is the rule name the diagnostic carries (for example
// "wallclock" or "trunc"). Allow comments are deliberate, reviewable
// escape hatches; package-level exemptions live in the scope tables in
// scopes.go, the single place widening a rule's reach is reviewed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string // analyzer name, e.g. "determinism"
	Rule     string // rule within the analyzer, e.g. "wallclock"
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s/%s: %s",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Rule, d.Message)
}

// Analyzer is one domain check, applied package by package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package) []Diagnostic
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism(),
		UnitsCheck(),
		ExtentCheck(),
		StageCheck(),
		PoolCheck(),
		Concurrency(),
		AllocCheck(),
		FlowCheck(),
	}
}

// Run applies the analyzers to every package of the module, drops
// findings suppressed by allow comments, and returns the remainder
// sorted by position.
func Run(m *Module, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, p := range m.Pkgs {
		for _, a := range analyzers {
			for _, d := range a.Run(p) {
				if p.allowed(d.Pos, d.Rule) {
					continue
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// AllowPrefix introduces an allow comment: //mhavet:allow rule [rule...]
const AllowPrefix = "mhavet:allow"

// parseDirective is the one parser for mhavet comment directives
// (//mhavet:allow, //mhavet:coldpath, ...). It reports whether the
// comment carries exactly the named directive — "mhavet:allowx" does not
// match "mhavet:allow" — and returns the whitespace-separated arguments.
func parseDirective(text, directive string) (args []string, ok bool) {
	t := strings.TrimSpace(strings.TrimPrefix(text, "//"))
	if t != directive && !strings.HasPrefix(t, directive+" ") && !strings.HasPrefix(t, directive+"\t") {
		return nil, false
	}
	return strings.Fields(strings.TrimPrefix(t, directive)), true
}

// collectAllows records, per file and line, the rules an allow comment
// suppresses. A comment suppresses findings on its own line and on the
// line immediately below (so a standalone comment line covers the
// statement it precedes).
func collectAllows(fset *token.FileSet, files []*ast.File) map[string]map[int]map[string]bool {
	allows := make(map[string]map[int]map[string]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rules, ok := parseDirective(c.Text, AllowPrefix)
				if !ok || len(rules) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := allows[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					allows[pos.Filename] = byLine
				}
				set := byLine[pos.Line]
				if set == nil {
					set = make(map[string]bool)
					byLine[pos.Line] = set
				}
				for _, r := range rules {
					set[r] = true
				}
			}
		}
	}
	return allows
}

// allowed reports whether a finding with the given rule at pos is
// suppressed by an allow comment on the same line or the line above.
func (p *Package) allowed(pos token.Position, rule string) bool {
	byLine := p.allows[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if set := byLine[line]; set != nil && (set[rule] || set["all"]) {
			return true
		}
	}
	return false
}

// pathMatches reports whether the package's import path, relative to its
// module, equals one of the suffixes or lies beneath one (so
// "internal/sim" matches both mhafs/internal/sim and any sub-package).
func (p *Package) pathMatches(suffixes []string) bool {
	rel := p.Path
	if prefix := p.Module.Path + "/"; strings.HasPrefix(rel, prefix) {
		rel = strings.TrimPrefix(rel, prefix)
	} else if rel == p.Module.Path {
		rel = "."
	}
	for _, s := range suffixes {
		if rel == s || strings.HasPrefix(rel, s+"/") {
			return true
		}
	}
	return false
}

// diag builds a Diagnostic at the node's position.
func (p *Package) diag(analyzer, rule string, node ast.Node, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:      p.Module.Fset.Position(node.Pos()),
		Analyzer: analyzer,
		Rule:     rule,
		Message:  fmt.Sprintf(format, args...),
	}
}

// isNamed reports whether t (after pointer indirection) is the named type
// pkgSuffix.name, matching the defining package by import-path suffix so
// fixture copies of a package satisfy the same checks as the real one.
func isNamed(t types.Type, pkgSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	path := obj.Pkg().Path()
	return path == pkgSuffix || strings.HasSuffix(path, "/"+pkgSuffix)
}
