package analysis

import (
	"go/ast"
	"go/types"
)

// ServeCtx enforces the serving-path cancellation contract: an
// HTTP handler's work must die with its request. Any function that
// receives a *http.Request and then builds its own root context —
// context.Background(), context.TODO() — or starts a session without
// one — exp.NewSession — has detached from the client: a closed
// connection or expired deadline keeps simulating. The fix is always
// the same: thread r.Context() through, and use exp.NewSessionContext.
//
// The check resolves through go/types: a function — declared or a
// function literal, such as a handler a factory returns — is in scope
// when a parameter's type is *net/http.Request, whatever net/http is
// imported as, and the calls are matched by their resolved callee. Functions the
// request never reaches are out of scope — a daemon's main() may well
// own a Background root for its signal handling.
type ServeCtx struct{}

// Name implements Analyzer.
func (ServeCtx) Name() string { return "servectx" }

// detachingCalls maps each banned callee, as calleePkgFunc names it, to
// its diagnostic.
var detachingCalls = map[[2]string]string{
	{"context", "Background"}:           "context.Background in a request-handling function detaches work from the client; thread r.Context() instead",
	{"context", "TODO"}:                 "context.TODO in a request-handling function detaches work from the client; thread r.Context() instead",
	{"ebcp/internal/exp", "NewSession"}: "exp.NewSession in a request-handling function cannot be cancelled; use exp.NewSessionContext with the request's context",
}

// Check implements Analyzer.
func (ServeCtx) Check(p *Pkg) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var typ *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				typ, body = fn.Type, fn.Body
			case *ast.FuncLit:
				typ, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil || !hasRequestParam(p.Info, typ) {
				return true // a request may still reach a literal inside
			}
			// The scan covers every literal nested in this body, so it
			// stops the outer walk: each call is reported once.
			ast.Inspect(body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if path, name, ok := calleePkgFunc(p.Info, call); ok {
					if msg, banned := detachingCalls[[2]string{path, name}]; banned {
						out = append(out, Diagnostic{p.Fset.Position(call.Pos()), "servectx", msg})
					}
				}
				return true
			})
			return false
		})
	}
	return out
}

// hasRequestParam reports whether any parameter of a function type has
// type *net/http.Request.
func hasRequestParam(info *types.Info, fn *ast.FuncType) bool {
	for _, field := range fn.Params.List {
		ptr, ok := types.Unalias(info.TypeOf(field.Type)).(*types.Pointer)
		if ok && types.TypeString(types.Unalias(ptr.Elem()), nil) == "net/http.Request" {
			return true
		}
	}
	return false
}
