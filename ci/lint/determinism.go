package main

import (
	"go/ast"
	"go/types"
	"sort"
)

// determinism enforces the repo's byte-identical-reruns contract: no
// wall-clock reads, no global math/rand state, and no order-sensitive
// iteration over maps. Simulated time is data (float64 ms), randomness is
// an injected seeded *rand.Rand, and map iteration order leaks into any
// output it writes — CI diffs sweep outputs byte-for-byte, so one
// unsorted range shows up as flaky nondeterminism long after the fact.
//
// The scope is not a hard-coded package list: it is derived from
// determinismSeeds — the packages whose outputs CI byte-diffs — by
// propagating taint through the module's reference graph (see
// Module.refs). Any package whose functions, methods or variables are
// transitively reachable from a seed can feed bytes into the diffed
// output, so the whole closure is held to the contract; packages only
// referenced through types (apt's re-export aliases of the live serving
// layer) stay outside it.
var determinism = &Analyzer{
	Name:      "determinism",
	Doc:       "forbid wall-clock, global rand and order-sensitive map ranges in the taint-derived deterministic scope",
	RunModule: runDeterminismModule,
}

// determinismSeeds lists the packages whose outputs CI diffs
// byte-for-byte across reruns — the taint sources of the determinism
// scope. The CI determinism job reruns `cmd/sweep` in batch, stream,
// scale and robust modes and `cmd/experiments -ext` (every thesis and
// extension artifact), and cmp's stdout. A test pins each seed to an
// actual invocation in .github/workflows/ci.yml, so the seed list cannot
// silently outlive the job that justifies it.
var determinismSeeds = []string{"repro/cmd/sweep", "repro/cmd/experiments"}

// deriveDeterminismScope computes the transitive closure of the seeds
// over the module's reference graph, restricted to loaded packages. The
// result is deterministic (sorted insertion order does not matter for a
// set, but tests compare it against golden lists).
func deriveDeterminismScope(m *Module) map[string]bool {
	scope := map[string]bool{}
	var frontier []string
	for _, s := range determinismSeeds {
		if m.byPath[s] != nil && !scope[s] {
			scope[s] = true
			frontier = append(frontier, s)
		}
	}
	for len(frontier) > 0 {
		pkg := frontier[0]
		frontier = frontier[1:]
		next := make([]string, 0, len(m.refs[pkg]))
		for ref := range m.refs[pkg] {
			if !scope[ref] && m.byPath[ref] != nil {
				scope[ref] = true
				next = append(next, ref)
			}
		}
		// Visit in sorted order so any future order-dependent logic
		// (diagnostic attribution, debugging prints) stays reproducible.
		sort.Strings(next)
		frontier = append(frontier, next...)
	}
	return scope
}

func runDeterminismModule(p *Pass) {
	scope := deriveDeterminismScope(p.Mod)
	for _, pkg := range p.Mod.Pkgs {
		if pkg.Target && scope[pkg.Path] {
			runDeterminismPkg(p, pkg)
		}
	}
}

// bannedTimeFuncs are the wall-clock reads that make a run irreproducible.
var bannedTimeFuncs = map[string]bool{"Now": true, "Since": true}

// allowedRandFuncs are the package-level constructors of math/rand that
// produce an explicitly seeded generator; everything else package-level
// (Intn, Float64, Shuffle, ...) draws from the shared global source.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors:
	"NewPCG": true, "NewChaCha8": true,
}

// runDeterminismPkg applies the intraprocedural checks to one scoped
// package. A wall-clock read whose result provably never reaches the
// diffed output — side-band throughput reporting on stderr — carries a
// //lint:wallclock directive on (or immediately above) the call, the
// same shape of per-site proof obligation as //lint:ordered.
func runDeterminismPkg(p *Pass, pkg *Package) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := pkg.calleeFunc(n)
				if fn == nil || fn.Signature().Recv() != nil {
					return true // methods (e.g. on *rand.Rand) are fine
				}
				switch pkgPathOf(fn) {
				case "time":
					if bannedTimeFuncs[fn.Name()] && !p.suppressed(file, n.Pos(), "wallclock") {
						p.Reportf(n.Pos(), "call to time.%s in deterministic package (simulated time is data; inject times explicitly, or mark //lint:wallclock if the value provably stays out of diffed output)", fn.Name())
					}
				case "math/rand", "math/rand/v2":
					if !allowedRandFuncs[fn.Name()] {
						p.Reportf(n.Pos(), "global rand.%s in deterministic package (draw from an injected seeded *rand.Rand)", fn.Name())
					}
				}
			case *ast.RangeStmt:
				p.checkMapRange(pkg, file, n)
			}
			return true
		})
	}
}

// checkMapRange flags a range over a map whose body writes state declared
// outside the loop (or returns out of it): the write order — and for an
// early return, the chosen element — then depends on Go's randomized map
// iteration order. Ranges proven order-insensitive carry //lint:ordered.
func (p *Pass) checkMapRange(pkg *Package, file *ast.File, rng *ast.RangeStmt) {
	t := pkg.Info.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if p.suppressed(file, rng.Pos(), "ordered") {
		return
	}
	lo, hi := rng.Pos(), rng.End()

	// outer reports whether the expression's root variable is declared
	// outside the range statement (or is too opaque to prove inner).
	outer := func(e ast.Expr) bool {
		id := rootIdent(e)
		if id == nil {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil {
			obj = pkg.Info.Defs[id]
		}
		if id.Name == "_" {
			return false
		}
		return !declaredWithin(obj, lo, hi)
	}

	// One diagnostic per range, anchored at the range statement (where
	// the fix goes), describing the first order-sensitive effect found.
	reported := false
	report := func(what string) {
		if !reported {
			reported = true
			p.Reportf(rng.Pos(), "map range %s, but map iteration order is randomized (iterate sorted keys, or mark //lint:ordered if provably order-insensitive)", what)
		}
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if outer(lhs) {
					report("writes state declared outside the loop")
					return true
				}
			}
		case *ast.IncDecStmt:
			if outer(n.X) {
				report("writes state declared outside the loop")
			}
		case *ast.SendStmt:
			if outer(n.Chan) {
				report("sends on a channel in iteration order")
			}
		case *ast.ReturnStmt:
			report("returns from inside the loop, so the surviving element depends on iteration order")
		}
		return true
	})
}
