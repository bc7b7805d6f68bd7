package analysis

import (
	"go/ast"
	"go/types"
)

// iopathPkg and mpiioPkg identify the pipeline package and the middleware
// that owns request submission, by import-path suffix (so the fixture
// copies used in tests are held to the same contract).
const (
	iopathPkg = "internal/iopath"
	mpiioPkg  = "internal/mpiio"
)

// requestOwners are the packages allowed to construct iopath.Request
// values directly: the pipeline itself and the middleware that submits
// root requests. Everyone else must go through the middleware (or derive
// children via Request.child) so identity fields propagate consistently.
var requestOwners = []string{iopathPkg, mpiioPkg}

// aliasFields are the Request fields a derived or copied request must
// never share with its parent: an aliased OnComplete double-fires the
// completion callback, and an aliased Binding routes two requests to one
// server-side placement.
var aliasFields = map[string]bool{
	"OnComplete": true,
	"Binding":    true,
}

// StageCheck enforces the iopath pipeline invariants:
//
//   - "chain": a function holding a chain snapshot (a []slot parameter)
//     must not mutate it (element assignment, append) or retain it in a
//     field or package variable — the pipeline's copy-on-write
//     registration depends on snapshots staying frozen;
//   - "reqliteral": iopath.Request composite literals are constructed
//     only by the pipeline and the middleware;
//   - "alias": request derivation must copy, not alias: OnComplete and
//     Binding never flow from one Request into another.
func StageCheck() *Analyzer {
	const name = "stagecheck"
	return &Analyzer{
		Name: name,
		Doc:  "iopath invariants: frozen chain snapshots, owned request construction, no descriptor aliasing",
		Run: func(p *Package) []Diagnostic {
			var out []Diagnostic
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch e := n.(type) {
					case *ast.FuncDecl:
						if e.Body != nil {
							out = append(out, p.checkChainParams(name, e.Type, e.Body)...)
						}
					case *ast.FuncLit:
						out = append(out, p.checkChainParams(name, e.Type, e.Body)...)
					case *ast.CompositeLit:
						out = append(out, p.checkRequestLit(name, e)...)
					case *ast.AssignStmt:
						out = append(out, p.checkAliasAssign(name, e)...)
					}
					return true
				})
			}
			return out
		},
	}
}

// isChainSlice reports whether t is a slice of the iopath chain's slot
// type.
func isChainSlice(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	return ok && isNamed(sl.Elem(), iopathPkg, "slot")
}

// chainParams returns the parameter objects of ft that carry chain
// snapshots.
func (p *Package) chainParams(ft *ast.FuncType) map[types.Object]bool {
	if ft.Params == nil {
		return nil
	}
	var params map[types.Object]bool
	for _, field := range ft.Params.List {
		for _, nm := range field.Names {
			obj := p.Info.Defs[nm]
			if obj == nil || !isChainSlice(obj.Type()) {
				continue
			}
			if params == nil {
				params = make(map[types.Object]bool)
			}
			params[obj] = true
		}
	}
	return params
}

// checkChainParams flags mutation or retention of chain-snapshot
// parameters within the function body.
func (p *Package) checkChainParams(name string, ft *ast.FuncType, body *ast.BlockStmt) []Diagnostic {
	params := p.chainParams(ft)
	if params == nil {
		return nil
	}
	isParam := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && params[p.Info.Uses[id]]
	}
	var out []Diagnostic
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range e.Lhs {
				if root, viaIndex := assignRoot(lhs); viaIndex && isParam(root) {
					out = append(out, p.diag(name, "chain", lhs,
						"mutation of chain snapshot %s: in-flight requests share it; copy before editing", operandName(root)))
				}
				// Retention: the bare snapshot stored into a field or a
				// package-level variable outlives the dispatch.
				if i < len(e.Rhs) && isParam(e.Rhs[i]) && !isLocalTarget(p, lhs) {
					out = append(out, p.diag(name, "chain", e.Rhs[i],
						"chain snapshot retained beyond the dispatch; stages must not store the chain"))
				}
			}
		case *ast.CallExpr:
			if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "append" &&
				len(e.Args) > 0 && isParam(e.Args[0]) {
				out = append(out, p.diag(name, "chain", e,
					"append to chain snapshot %s may write the shared backing array; copy first", operandName(e.Args[0])))
			}
		}
		return true
	})
	return out
}

// assignRoot unwraps an assignment target to its root expression and
// reports whether the path passes through an index (element mutation).
func assignRoot(e ast.Expr) (root ast.Expr, viaIndex bool) {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
			viaIndex = true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return e, viaIndex
		}
	}
}

// isLocalTarget reports whether an assignment target is a plain local
// variable (including blank), as opposed to a field or package-level
// variable.
func isLocalTarget(p *Package, lhs ast.Expr) bool {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return false
	}
	if id.Name == "_" {
		return true
	}
	obj := p.Info.Defs[id]
	if obj == nil {
		obj = p.Info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	return ok && v.Parent() != v.Pkg().Scope()
}

// checkRequestLit flags Request composite literals outside the owning
// packages and aliasing field values inside any Request literal.
func (p *Package) checkRequestLit(name string, lit *ast.CompositeLit) []Diagnostic {
	tv, ok := p.Info.Types[lit]
	if !ok || !isNamed(tv.Type, iopathPkg, "Request") {
		return nil
	}
	var out []Diagnostic
	if !p.pathMatches(requestOwners) {
		out = append(out, p.diag(name, "reqliteral", lit,
			"iopath.Request constructed outside the pipeline/middleware; submit through the middleware or derive children via Request.child"))
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || !aliasFields[key.Name] {
			continue
		}
		if sel, ok := kv.Value.(*ast.SelectorExpr); ok &&
			isRequest(p, sel.X) && aliasFields[sel.Sel.Name] {
			out = append(out, p.diag(name, "alias", kv,
				"derived request aliases parent's %s; child requests must copy, not share, completion/annotation state", sel.Sel.Name))
		}
	}
	return out
}

// checkAliasAssign flags req2.F = req1.F for the alias-forbidden fields
// across two different requests.
func (p *Package) checkAliasAssign(name string, as *ast.AssignStmt) []Diagnostic {
	var out []Diagnostic
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		lsel, ok := lhs.(*ast.SelectorExpr)
		if !ok || !aliasFields[lsel.Sel.Name] || !isRequest(p, lsel.X) {
			continue
		}
		rsel, ok := as.Rhs[i].(*ast.SelectorExpr)
		if !ok || !aliasFields[rsel.Sel.Name] || !isRequest(p, rsel.X) {
			continue
		}
		if types.ExprString(lsel.X) == types.ExprString(rsel.X) {
			continue // wrapping req.OnComplete around itself is the sanctioned pattern
		}
		out = append(out, p.diag(name, "alias", as,
			"request %s aliased from another request; copy or wrap instead", lsel.Sel.Name))
	}
	return out
}

// isRequest reports whether e has type iopath.Request or *iopath.Request.
func isRequest(p *Package, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	return t != nil && isNamed(t, iopathPkg, "Request")
}
