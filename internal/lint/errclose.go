// errclose: a discarded error from Close/Flush/Sync/Write on a file,
// CSV emitter, buffered writer or trace sink is a silently truncated
// checkpoint or result file — the study looks complete and is not. The
// error must be checked, or visibly discarded with `_ =` where the
// close genuinely cannot matter (read-only files at end of use).
//
// The `_ =` escape does NOT extend to flush-critical writers: a failed
// (*bufio.Writer).Flush or (*gzip.Writer).Close means buffered bytes
// never reached the underlying writer, so even a visible discard is a
// truncated artifact. Those are flagged in blank-assign position too.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// errcloseMethods are the flagged method names.
var errcloseMethods = map[string]bool{
	"Close": true, "Flush": true, "Sync": true, "Write": true,
}

// errcloseFlushCritical are receiver.method pairs whose error is load-
// bearing even when visibly discarded: the call is the moment buffered
// bytes commit to the underlying writer, or, for the event journal, the
// one place its sticky write error is reported.
var errcloseFlushCritical = map[string]bool{
	"bufio.Writer.Flush":                  true,
	"compress/gzip.Writer.Close":          true,
	"compress/gzip.Writer.Flush":          true,
	"xvolt/internal/eventstore.Log.Close": true,
	"xvolt/internal/fleet.Store.Close":    true,
	"xvolt/internal/fleet.Manager.Close":  true,
}

// errcloseStdReceivers are standard-library receiver types whose
// flagged methods guard durable output.
var errcloseStdReceivers = map[string]bool{
	"os.File":              true,
	"encoding/csv.Writer":  true,
	"bufio.Writer":         true,
	"compress/gzip.Writer": true,
}

// NewErrclose builds the errclose analyzer.
func NewErrclose() *Analyzer {
	a := &Analyzer{
		Name: "errclose",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					checkErrclose(pass, n.X, "discarded")
				case *ast.DeferStmt:
					checkErrclose(pass, n.Call, "discarded by defer (close explicitly and check, or wrap in a func that records it)")
				case *ast.GoStmt:
					checkErrclose(pass, n.Call, "discarded by go statement")
				case *ast.AssignStmt:
					checkFlushCritical(pass, n)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// checkErrclose flags e when it is a durable-output method call whose
// error result is dropped.
func checkErrclose(pass *Pass, e ast.Expr, how string) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !errcloseMethods[sel.Sel.Name] {
		return
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || !lastResultIsError(sig) {
		return
	}
	if !durableReceiver(pass, sig.Recv().Type()) {
		return
	}
	pass.Reportf(call.Pos(), "error from %s %s", recvTypeName(sig)+"."+sel.Sel.Name, how)
}

// checkFlushCritical flags `_ = w.Flush()`-style blank assigns on
// flush-critical writers, where a visible discard is still data loss.
func checkFlushCritical(pass *Pass, n *ast.AssignStmt) {
	if n.Tok != token.ASSIGN || len(n.Rhs) != 1 {
		return
	}
	for _, l := range n.Lhs {
		if id, ok := l.(*ast.Ident); !ok || id.Name != "_" {
			return
		}
	}
	call, ok := n.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || !lastResultIsError(sig) {
		return
	}
	key := recvTypeName(sig) + "." + sel.Sel.Name
	if !errcloseFlushCritical[key] {
		return
	}
	pass.Reportf(call.Pos(),
		"error from %s discarded with _ =: a failed %s means lost output (unwritten buffered bytes or a failed journal write) — check it and surface the failure",
		key, sel.Sel.Name)
}

// lastResultIsError reports whether the signature's final result is error.
func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	named, ok := res.At(res.Len() - 1).Type().(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// durableReceiver reports whether a receiver type's writes must not be
// dropped: the known std writer types, every interface (io.Closer,
// io.Writer, trace.Sink — the concrete value could be durable), and any
// module-declared type (our sinks, checkpoint writers and emitters).
// strings.Builder / bytes.Buffer style never-fail writers stay exempt.
func durableReceiver(pass *Pass, t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if _, ok := t.Underlying().(*types.Interface); ok {
		return true
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	if errcloseStdReceivers[path+"."+named.Obj().Name()] {
		return true
	}
	if pass.prog.byPath[path] != nil {
		// Module-declared writer types: sinks and emitters by
		// convention carry Sink/Writer/Log in the name; other module
		// types with an incidental Write method are not durable outputs.
		name := named.Obj().Name()
		return strings.HasSuffix(name, "Sink") || strings.HasSuffix(name, "Writer") ||
			strings.HasSuffix(name, "Log")
	}
	return false
}
