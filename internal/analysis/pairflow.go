package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Resource-lifecycle analysis: poolpair.
//
// The analyzer interprets function bodies over the CFG (cfg.go) with a
// small ownership lattice, driven by the acquire/release pair table
// below. A resource variable is:
//
//	Owned      — definitely holds an unreleased resource
//	CondOwned  — holds one iff the error bound alongside it is nil;
//	             refined to Owned/absent on err == nil / err != nil edges
//	Maybe      — owned on some inflowing paths but not others (the join
//	             of Owned and absent); still a leak if it reaches exit
//
// Ownership ends when the value is passed to the pair's release
// function, returned to the caller (explicit ownership transfer),
// passed to another call or goroutine, sent on a channel, or captured
// by a closure (the closure may release it; each closure body is
// analyzed as its own function unit). Storing a pooled value into a
// struct field, map, or through a pointer is an escape, and that is
// itself a violation: a pooled buffer that outlives the function defeats
// recycling and invites aliasing bugs.

// A ResourcePair declares one acquire/release discipline.
type ResourcePair struct {
	// Name labels the resource in diagnostics ("pooled buffer").
	Name string
	// AcquireKeys are funcKey values whose call results are the resource
	// (the first result of a multi-value call).
	AcquireKeys []string
	// ReleaseKeys are funcKey values that release the resource, passed as
	// the first argument.
	ReleaseKeys []string
	// ReleaseHint names the missing call in diagnostics ("Put").
	ReleaseHint string
}

// poolPairs are the recycled-value disciplines: raw sync.Pool plus the
// repo's typed wrappers (the TLV buffer pool and the solver free list).
// server.readBody is an acquire front for the buffer pool: it returns a
// pooled buffer the caller must hand back to binary.PutBuffer.
var poolPairs = []*ResourcePair{
	{
		Name:        "pooled value",
		AcquireKeys: []string{"sync.(Pool).Get"},
		ReleaseKeys: []string{"sync.(Pool).Put"},
		ReleaseHint: "Put",
	},
	{
		Name: "pooled buffer",
		AcquireKeys: []string{
			"paydemand/internal/wire/binary.GetBuffer",
			"paydemand/internal/server.readBody",
		},
		ReleaseKeys: []string{"paydemand/internal/wire/binary.PutBuffer"},
		ReleaseHint: "binary.PutBuffer",
	},
	{
		Name:        "pooled solver",
		AcquireKeys: []string{"paydemand/internal/selection.(SolverPool).Get"},
		ReleaseKeys: []string{"paydemand/internal/selection.(SolverPool).Put"},
		ReleaseHint: "Put",
	},
}

// PoolPair reports sync.Pool-style values that are not returned to their
// pool on every path, or that escape the acquiring function.
var PoolPair = &Analyzer{
	Name: "poolpair",
	Doc: "check that pooled values (sync.Pool.Get, binary.GetBuffer, " +
		"SolverPool.Get) are released on every path and never escape into " +
		"fields or maps (suppress with //paylint:poolpair <reason>)",
	Run: func(p *Pass) error { return runPairAnalyzer(p, poolPairs) },
}

// funcKey renders a *types.Func as pkgpath.Func or pkgpath.(Recv).Method,
// the form the pair tables are written in.
func funcKey(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		return f.Pkg().Path() + ".(" + named.Obj().Name() + ")." + f.Name()
	}
	return f.Pkg().Path() + "." + f.Name()
}

// calleeFunc resolves a call's target *types.Func, nil for builtins,
// function values, and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// unwrapAcquireExpr strips parens and type assertions, so the idiomatic
// pool.Get().(*T) reads as its underlying Get call.
func unwrapAcquireExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return e
		}
	}
}

// inspectSameFunc walks n without descending into function literals,
// whose bodies are separate analysis units.
func inspectSameFunc(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if x == nil {
			return false
		}
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		return f(x)
	})
}

// resStatus is the ownership lattice.
type resStatus uint8

const (
	resOwned resStatus = iota
	resCondOwned
	resMaybe
)

// resInfo tracks one live resource variable.
type resInfo struct {
	status  resStatus
	errObj  types.Object // for resCondOwned: the error bound with it
	pair    *ResourcePair
	acquire ast.Node // statement that acquired: report anchor + directive site
}

// pairState is the FlowState: live resources keyed by their variable.
type pairState struct {
	res map[types.Object]resInfo
}

func (s *pairState) CloneFlow() FlowState {
	c := &pairState{res: make(map[types.Object]resInfo, len(s.res))}
	for k, v := range s.res {
		c.res[k] = v
	}
	return c
}

func (s *pairState) JoinFlow(other FlowState) bool {
	o := other.(*pairState)
	changed := false
	for k, ov := range o.res {
		mv, ok := s.res[k]
		if !ok {
			// Absent here, owned there: owned on some paths only.
			ov.status = resMaybe
			ov.errObj = nil
			s.res[k] = ov
			changed = true
			continue
		}
		if mv.status == ov.status && mv.errObj == ov.errObj {
			continue
		}
		mv.status = resMaybe
		mv.errObj = nil
		s.res[k] = mv
		changed = true
	}
	for k, mv := range s.res {
		if _, ok := o.res[k]; !ok && mv.status != resMaybe {
			mv.status = resMaybe
			mv.errObj = nil
			s.res[k] = mv
			changed = true
		}
	}
	return changed
}

// pairRunner carries the per-function interpretation context.
type pairRunner struct {
	pass     *Pass
	pairs    []*ResourcePair
	reported map[token.Pos]map[string]bool
}

func runPairAnalyzer(pass *Pass, pairs []*ResourcePair) error {
	if !isConcurrencyPackage(pass.Pkg.Path()) {
		return nil
	}
	r := &pairRunner{pass: pass, pairs: pairs, reported: map[token.Pos]map[string]bool{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			r.analyzeBody(fn.Body)
			// Closures are their own units: a worker goroutine body must
			// balance its own Gets and Puts.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					r.analyzeBody(lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

func (r *pairRunner) analyzeBody(body *ast.BlockStmt) {
	cfg := BuildCFG(body, CFGOptions{NoReturn: noReturnCall(r.pass)})
	fa := &FlowAnalysis{
		Entry:    &pairState{res: map[types.Object]resInfo{}},
		Transfer: func(s FlowState, n ast.Node) { r.transfer(s.(*pairState), n) },
		Branch:   func(s FlowState, cond ast.Expr, taken bool) { r.branch(s.(*pairState), cond, taken) },
		AtExit:   func(s FlowState) { r.atExit(s.(*pairState)) },
	}
	fa.Run(cfg)
}

// noReturnCall recognizes the no-return calls the repo uses, so held
// resources at a crash site are not path leaks.
func noReturnCall(pass *Pass) func(*ast.CallExpr) bool {
	return func(call *ast.CallExpr) bool {
		switch funcKey(calleeFunc(pass.TypesInfo, call)) {
		case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln", "runtime.Goexit":
			return true
		}
		return false
	}
}

// report emits one deduplicated diagnostic, honoring a
// //paylint:poolpair directive at the anchoring node.
func (r *pairRunner) report(node ast.Node, format string, args ...any) {
	if r.pass.Suppressed(node, "poolpair") {
		return
	}
	msg := fmt.Sprintf(format, args...)
	pos := node.Pos()
	if r.reported[pos] == nil {
		r.reported[pos] = map[string]bool{}
	}
	if r.reported[pos][msg] {
		return
	}
	r.reported[pos][msg] = true
	r.pass.Reportf(pos, "%s", msg)
}

// acquirePair matches a call against the tables; nil if not an acquire.
func (r *pairRunner) acquirePair(call *ast.CallExpr) *ResourcePair {
	key := funcKey(calleeFunc(r.pass.TypesInfo, call))
	for _, p := range r.pairs {
		for _, k := range p.AcquireKeys {
			if key == k {
				return p
			}
		}
	}
	return nil
}

// releaseOperand returns the expression whose resource a release call
// frees, or nil if the call is not a release in the pair set.
func (r *pairRunner) releaseOperand(call *ast.CallExpr) ast.Expr {
	key := funcKey(calleeFunc(r.pass.TypesInfo, call))
	if key == "" {
		return nil
	}
	for _, p := range r.pairs {
		for _, k := range p.ReleaseKeys {
			if key != k {
				continue
			}
			if len(call.Args) > 0 {
				return call.Args[0]
			}
			return nil
		}
	}
	return nil
}

// objOf resolves an expression to the variable it names, nil otherwise.
func (r *pairRunner) objOf(e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return r.pass.TypesInfo.ObjectOf(id)
	}
	return nil
}

// errResultObj finds the error bound alongside the resource in a
// multi-value binding: the object of the LHS ident matching an error
// result position, nil when there is none (or it is _).
func (r *pairRunner) errResultObj(call *ast.CallExpr, lhs []ast.Expr) types.Object {
	fn := calleeFunc(r.pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	results := fn.Type().(*types.Signature).Results()
	if results.Len() != len(lhs) {
		return nil
	}
	for i := 0; i < results.Len(); i++ {
		named, ok := results.At(i).Type().(*types.Named)
		if !ok || named.Obj().Pkg() != nil || named.Obj().Name() != "error" {
			continue
		}
		if id, ok := ast.Unparen(lhs[i]).(*ast.Ident); ok && id.Name != "_" {
			return r.pass.TypesInfo.ObjectOf(id)
		}
	}
	return nil
}

// transfer interprets one CFG atom.
func (r *pairRunner) transfer(s *pairState, n ast.Node) {
	consumed := map[*ast.CallExpr]bool{}

	switch stmt := n.(type) {
	case *ast.AssignStmt:
		r.transferAssign(s, stmt, consumed)
	case *ast.DeclStmt:
		if gd, ok := stmt.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, name := range vs.Names {
					lhs[i] = name
				}
				if len(vs.Values) == 1 && len(lhs) > 1 {
					if call, ok := unwrapAcquireExpr(ast.Unparen(vs.Values[0])).(*ast.CallExpr); ok {
						r.bindCall(s, stmt, lhs, call, consumed)
					}
					continue
				}
				r.bindValues(s, stmt, lhs, vs.Values, consumed)
			}
		}
	case *ast.ReturnStmt:
		for _, res := range stmt.Results {
			e := unwrapAcquireExpr(ast.Unparen(res))
			if obj := r.objOf(e); obj != nil {
				delete(s.res, obj) // ownership transferred to the caller
				continue
			}
			if call, ok := e.(*ast.CallExpr); ok && r.acquirePair(call) != nil {
				consumed[call] = true // acquired and transferred in one step
			}
		}
	case *ast.GoStmt:
		for _, arg := range stmt.Call.Args {
			if obj := r.objOf(arg); obj != nil {
				delete(s.res, obj) // handed to the goroutine
			}
		}
	case *ast.SendStmt:
		if obj := r.objOf(stmt.Value); obj != nil {
			delete(s.res, obj) // handed to the receiver
		}
	}

	// Releases anywhere in the atom: untrack the operand; a release
	// wrapped directly around an acquire is balanced in place.
	inspectSameFunc(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		operand := r.releaseOperand(call)
		if operand == nil {
			return true
		}
		consumed[call] = true
		e := unwrapAcquireExpr(ast.Unparen(operand))
		if obj := r.objOf(e); obj != nil {
			delete(s.res, obj)
		} else if inner, ok := e.(*ast.CallExpr); ok && r.acquirePair(inner) != nil {
			consumed[inner] = true
		}
		return true
	})

	// A closure that captures a tracked variable may release it; its body
	// is verified as its own unit, so stop tracking here. (Plain
	// ast.Inspect: inspectSameFunc prunes FuncLits before the callback
	// could see them.)
	ast.Inspect(n, func(x ast.Node) bool {
		lit, ok := x.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(y ast.Node) bool {
			if id, ok := y.(*ast.Ident); ok {
				if obj := r.pass.TypesInfo.ObjectOf(id); obj != nil {
					delete(s.res, obj)
				}
			}
			return true
		})
		return false
	})

	// Passing a tracked value to any other real call transfers ownership
	// conservatively (the callee may release it). Builtins and type
	// conversions take no ownership.
	inspectSameFunc(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok || consumed[call] || !r.isOwnershipCall(call) {
			return true
		}
		for _, arg := range call.Args {
			if obj := r.objOf(arg); obj != nil {
				if _, tracked := s.res[obj]; tracked {
					delete(s.res, obj)
				}
			}
		}
		return true
	})

	// Discarded acquires: a bare expression statement whose result
	// vanishes can never be released.
	if es, ok := n.(*ast.ExprStmt); ok {
		if call, ok := unwrapAcquireExpr(ast.Unparen(es.X)).(*ast.CallExpr); ok && !consumed[call] {
			if pair := r.acquirePair(call); pair != nil {
				r.report(es, "result of %s is discarded; the %s can never be released (missing %s)",
					callName(call), pair.Name, pair.ReleaseHint)
			}
		}
	}
}

// transferAssign handles bindings, escapes, moves, and err correlation.
func (r *pairRunner) transferAssign(s *pairState, stmt *ast.AssignStmt, consumed map[*ast.CallExpr]bool) {
	// Escapes and moves of already-tracked values.
	if len(stmt.Lhs) == len(stmt.Rhs) {
		for i := range stmt.Rhs {
			r.moveOrEscape(s, stmt, stmt.Lhs[i], stmt.Rhs[i])
		}
	}

	// Breaking the err correlation: reassigning the error a CondOwned
	// resource was bound with makes the resource definitely owned.
	for _, lhs := range stmt.Lhs {
		obj := r.objOf(lhs)
		if obj == nil {
			continue
		}
		for k, info := range s.res {
			if info.status == resCondOwned && info.errObj == obj && info.acquire != stmt {
				info.status = resOwned
				info.errObj = nil
				s.res[k] = info
			}
		}
	}

	// New acquires.
	if len(stmt.Lhs) > 1 && len(stmt.Rhs) == 1 {
		if call, ok := unwrapAcquireExpr(ast.Unparen(stmt.Rhs[0])).(*ast.CallExpr); ok {
			r.bindCall(s, stmt, stmt.Lhs, call, consumed)
		}
		return
	}
	if len(stmt.Lhs) == len(stmt.Rhs) {
		r.bindValues(s, stmt, stmt.Lhs, stmt.Rhs, consumed)
	}
}

// bindCall binds the results of one multi-value acquire call.
func (r *pairRunner) bindCall(s *pairState, stmt ast.Stmt, lhs []ast.Expr, call *ast.CallExpr, consumed map[*ast.CallExpr]bool) {
	pair := r.acquirePair(call)
	if pair == nil {
		return
	}
	consumed[call] = true
	resIdent, ok := ast.Unparen(lhs[0]).(*ast.Ident)
	if !ok {
		// Stored straight into a field/map/element: an escape.
		r.report(stmt, "%s from %s escapes into a field, map, or pointer target; pooled values must stay function-local until %s",
			pair.Name, callName(call), pair.ReleaseHint)
		return
	}
	if resIdent.Name == "_" {
		r.report(stmt, "%s result of %s is discarded; it can never be released (missing %s)",
			pair.Name, callName(call), pair.ReleaseHint)
		return
	}
	info := resInfo{status: resOwned, pair: pair, acquire: stmt}
	if errObj := r.errResultObj(call, lhs); errObj != nil {
		info.status = resCondOwned
		info.errObj = errObj
	}
	r.bind(s, stmt, resIdent, info)
}

// bindValues binds pairwise lhs := rhs acquire calls.
func (r *pairRunner) bindValues(s *pairState, stmt ast.Stmt, lhs, rhs []ast.Expr, consumed map[*ast.CallExpr]bool) {
	if len(lhs) != len(rhs) {
		return
	}
	for i := range rhs {
		call, ok := unwrapAcquireExpr(ast.Unparen(rhs[i])).(*ast.CallExpr)
		if !ok {
			continue
		}
		pair := r.acquirePair(call)
		if pair == nil {
			continue
		}
		consumed[call] = true
		ident, ok := ast.Unparen(lhs[i]).(*ast.Ident)
		if !ok {
			r.report(stmt, "%s from %s escapes into a field, map, or pointer target; pooled values must stay function-local until %s",
				pair.Name, callName(call), pair.ReleaseHint)
			continue
		}
		if ident.Name == "_" {
			r.report(stmt, "%s result of %s is discarded; it can never be released (missing %s)",
				pair.Name, callName(call), pair.ReleaseHint)
			continue
		}
		r.bind(s, stmt, ident, resInfo{status: resOwned, pair: pair, acquire: stmt})
	}
}

// bind records a new acquisition, reporting an overwrite of a value that
// was still owned.
func (r *pairRunner) bind(s *pairState, stmt ast.Stmt, ident *ast.Ident, info resInfo) {
	obj := r.pass.TypesInfo.ObjectOf(ident)
	if obj == nil {
		return
	}
	if old, ok := s.res[obj]; ok && old.status != resCondOwned {
		r.report(old.acquire, "%s acquired here is overwritten before it is released (missing %s)",
			old.pair.Name, old.pair.ReleaseHint)
	}
	s.res[obj] = info
}

// moveOrEscape handles an assignment whose RHS is a tracked variable:
// ident targets move ownership; field, index, and pointer targets are
// escapes, which are violations.
func (r *pairRunner) moveOrEscape(s *pairState, stmt *ast.AssignStmt, lhs, rhs ast.Expr) {
	obj := r.objOf(rhs)
	if obj == nil {
		return
	}
	info, tracked := s.res[obj]
	if !tracked {
		return
	}
	switch target := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if target.Name == "_" {
			return // discarding a copy; the original is still tracked
		}
		newObj := r.pass.TypesInfo.ObjectOf(target)
		if newObj == nil || newObj == obj {
			return
		}
		delete(s.res, obj)
		s.res[newObj] = info
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		delete(s.res, obj)
		r.report(stmt, "%s escapes into a field, map, or pointer target; pooled values must stay function-local until %s",
			info.pair.Name, info.pair.ReleaseHint)
	}
}

// branch refines CondOwned resources along err == nil / err != nil edges.
func (r *pairRunner) branch(s *pairState, cond ast.Expr, taken bool) {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return
	}
	var errSide ast.Expr
	if isNilIdent(r.pass, bin.Y) {
		errSide = bin.X
	} else if isNilIdent(r.pass, bin.X) {
		errSide = bin.Y
	} else {
		return
	}
	obj := r.objOf(errSide)
	if obj == nil {
		return
	}
	// errIsNil on this edge: (==, taken) or (!=, not taken).
	errIsNil := (bin.Op == token.EQL) == taken
	for k, info := range s.res {
		if info.status != resCondOwned || info.errObj != obj {
			continue
		}
		if errIsNil {
			info.status = resOwned
			info.errObj = nil
			s.res[k] = info
		} else {
			delete(s.res, k) // acquire failed; nothing to release
		}
	}
}

// isOwnershipCall reports whether a call can plausibly take ownership of
// an argument: real function calls yes, builtins and conversions no.
func (r *pairRunner) isOwnershipCall(call *ast.CallExpr) bool {
	if tv, ok := r.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return false // conversion
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := r.pass.TypesInfo.ObjectOf(id).(*types.Builtin); isBuiltin {
			return false
		}
	}
	return true
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(pass *Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.TypesInfo.ObjectOf(id).(*types.Nil)
	return isNil
}

// atExit reports everything still owned when the function returns.
func (r *pairRunner) atExit(s *pairState) {
	for _, info := range s.res {
		switch info.status {
		case resOwned:
			r.report(info.acquire, "%s acquired here is not released on every path (missing %s)",
				info.pair.Name, info.pair.ReleaseHint)
		case resCondOwned:
			r.report(info.acquire, "%s acquired here is not released on the success path (missing %s)",
				info.pair.Name, info.pair.ReleaseHint)
		case resMaybe:
			r.report(info.acquire, "%s acquired here is released on some paths but not others (missing %s)",
				info.pair.Name, info.pair.ReleaseHint)
		}
	}
}

// callName renders a call target for diagnostics: the source text of its
// function expression, qualified the way the author wrote it.
func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
