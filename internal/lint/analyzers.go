package lint

import (
	"go/ast"
	"go/types"
)

// Wallclock flags wall-clock reads and uses of the global math/rand
// source. Simulated time comes from the DES (realm.Sim); randomness must
// flow through an explicitly seeded *rand.Rand so replays are
// bit-identical.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc:  "flag time.Now/Since/Until and global math/rand state in deterministic code",
	Run:  runWallclock,
}

var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// randGlobals are the package-level math/rand functions backed by the
// shared global source. Constructors (New, NewSource, NewZipf) are fine.
var randGlobals = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true, "N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64N": true, "Uint32N": true, "Uint64N": true, "UintN": true,
	"Uint": true, "Int64": true,
}

func runWallclock(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path := importedPackage(pass, sel.X)
			switch {
			case path == "time" && wallclockFuncs[sel.Sel.Name]:
				pass.Reportf(sel.Pos(), "time.%s reads the wall clock; simulated time must come from the DES (realm.Sim)", sel.Sel.Name)
			case (path == "math/rand" || path == "math/rand/v2") && randGlobals[sel.Sel.Name]:
				pass.Reportf(sel.Pos(), "rand.%s uses the global random source; use an explicitly seeded *rand.Rand for deterministic replay", sel.Sel.Name)
			}
			return true
		})
	}
}

// importedPackage returns the import path when x names an imported
// package, or "".
func importedPackage(pass *Pass, x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// MapRange flags map iterations whose bodies can leak Go's randomized
// iteration order into observable behavior: function calls and channel
// sends execute per element in nondeterministic order, and slices
// collected from a map range must be sorted before use. Order-insensitive
// bodies — pure folds, map-to-map copies, collect-then-sort — pass.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "flag map iteration feeding ordered effects without a sort",
	Run:  runMapRange,
}

func runMapRange(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkFuncMapRanges(pass, body)
			}
			return true
		})
	}
}

// checkFuncMapRanges examines the map-range statements directly inside one
// function body (nested function literals get their own visit).
func checkFuncMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pass.TypesInfo.TypeOf(rs.X); t == nil || !isMap(t) {
			return true
		}
		checkMapRangeBody(pass, rs, body)
		return true
	})
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func checkMapRangeBody(pass *Pass, rs *ast.RangeStmt, fn *ast.BlockStmt) {
	collected := map[types.Object]ast.Node{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure built during iteration runs later; its own map
			// ranges are checked separately.
			return false
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside map iteration delivers in nondeterministic order; collect and sort the keys first")
		case *ast.CallExpr:
			if obj, arg := appendTarget(pass, n); obj != nil {
				collected[obj] = arg
				return true
			}
			if orderInsensitiveCall(pass, n) {
				return true
			}
			pass.Reportf(n.Pos(), "function call inside map iteration runs in nondeterministic order; collect and sort the keys first")
		}
		return true
	})
	for obj, at := range collected {
		//detlint:ignore Run sorts the diagnostics by position before anyone sees them
		if !sortedInFunc(pass, fn, obj) {
			//detlint:ignore as above
			pass.Reportf(at.Pos(), "slice %q collected from map iteration is never sorted; map order leaks into later iteration", obj.Name())
		}
	}
}

// appendTarget matches `x = append(x, ...)` and returns x's object.
func appendTarget(pass *Pass, call *ast.CallExpr) (types.Object, ast.Node) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil, nil
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
		return nil, nil
	}
	if len(call.Args) == 0 {
		return nil, nil
	}
	dst, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil, nil
	}
	return pass.TypesInfo.ObjectOf(dst), call
}

// orderInsensitiveCall reports whether the call cannot observe iteration
// order: builtins and type conversions.
func orderInsensitiveCall(pass *Pass, call *ast.CallExpr) bool {
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if _, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			return true
		}
	}
	return false
}

// sortedInFunc reports whether the enclosing function passes obj to a
// sort.* or slices.* call — the collect-then-sort idiom.
func sortedInFunc(pass *Pass, fn *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if p := importedPackage(pass, sel.X); p != "sort" && p != "slices" {
			return true
		}
		for _, a := range call.Args {
			if id, ok := a.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// Goroutine flags go statements: concurrency in the simulator core must
// run as DES threads (realm.Exec.SpawnOn) so the scheduler fully orders it.
var Goroutine = &Analyzer{
	Name: "goroutine",
	Doc:  "flag go statements in deterministic code",
	Run:  runGoroutine,
}

func runGoroutine(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "go statement escapes the deterministic scheduler; use realm.Exec.SpawnOn")
			}
			return true
		})
	}
}
