package lang

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ir"
)

// grammarSrc uses every production of LANGUAGE.md's grammar: the three
// functors, scalar parameters with named and negative literal arguments,
// all three reduction operators on regions and on launch results, nested
// kernel and main loops, and every expression form.
const grammarSrc = `
program grammar

region R[0..15] fields { x, y, acc }
region S[0..7] fields { z }

partition PR = block(R, 4)
partition PS = block(S, 4)
partition SH = image(R, PR, shift(-2))
partition W  = image(R, PR, window(-1, 2))
partition RG = image(R, PR, ring(-1, 1))

task init(r: region writes(x, y)) {
  for p in r {
    r.x[p] = p / 2 - 1.5
    r.y[p] = -(p * 0.25)
  }
}

task smooth(out: region writes(y) reads(x), halo: region reads(x), k: scalar, c: scalar) {
  for p in out { out.y[p] = k * (halo.x[p - 1 mod 16] + halo.x[p + 1 mod 16]) / c }
}

task spread(g: region reduces max (acc), own: region reads(y)) {
  for p in own { g.acc[p - 2 mod 16] += own.y[p] }
}

task lowest(r: region reads(y)) { for p in r { result min= r.y[p] } }
task highest(w: region reads(x)) { for p in w { result max= w.x[p] } }

task pairs(s: region writes(z) reads(z), r: region reads(x)) {
  for p in s {
    for q in r { s.z[p] = s.z[p] + r.x[q] }
  }
}

fill R.x = idx
fill R.y = 0
fill R.acc = -1
fill S.z = 0.5
var gain = 0.5

launch init(PR[i])
for t = 0, 3 {
  for u = 0, 2 {
    launch smooth(PR[i], RG[i]; gain, -2.5)
  }
  launch spread(SH[i], PR[i])
  reduce min lo = launch lowest(PR[i])
  reduce max hi = launch highest(W[i])
  launch pairs(PS[i], PR[i])
}
`

// What FuzzLangCompile compiles and runs. Building an image partition
// visits every point of its source subregions, and a kernel's loops run
// over whole subregions, so a program over a billion points is legal but
// slow: it is parsed and skipped.
const (
	fuzzMaxVolume = 4096    // points in a region, and blocks in a partition
	fuzzMaxArg    = 16      // |a| and |b| of a functor
	fuzzMaxLaunch = 64      // launch executions and loop iterations of a program that runs
	fuzzMaxWork   = 1 << 18 // launch executions × volume^(kernel loop depth)
)

// fuzzBudget reports whether Compile may run on ast, and whether the
// compiled program may then run under ir.ExecSequential.
func fuzzBudget(ast *astProgram) (compile, run bool) {
	volume := int64(1)
	for _, r := range ast.regions {
		if r.lo < -fuzzMaxVolume || r.hi > fuzzMaxVolume || r.hi-r.lo >= fuzzMaxVolume {
			return false, false
		}
		volume = max(volume, r.hi-r.lo+1)
	}
	for _, pd := range ast.parts {
		for _, v := range []int64{pd.fn.a, pd.fn.b} {
			if v < -fuzzMaxArg || v > fuzzMaxArg {
				return false, false
			}
		}
		if pd.n > fuzzMaxVolume {
			return false, false
		}
	}
	launches, depth := launchCount(ast.stmts, 1), 0
	for _, tk := range ast.tasks {
		depth = max(depth, kernelDepth(tk.body))
	}
	work := launches
	for ; depth > 0 && work <= fuzzMaxWork; depth-- {
		work *= volume
	}
	return true, launches <= fuzzMaxLaunch && work <= fuzzMaxWork
}

// launchCount is the number of launches stmts execute when they run mult
// times. It returns more than fuzzMaxLaunch as soon as the count, or the
// iterations of a loop nest, launching or not, pass it.
func launchCount(stmts []astStmt, mult int64) int64 {
	n := int64(0)
	for _, s := range stmts {
		switch s := s.(type) {
		case *astLaunch:
			n += mult
		case *astLoop:
			if s.hi > fuzzMaxLaunch || mult*s.hi > fuzzMaxLaunch {
				return fuzzMaxLaunch + 1
			}
			n += launchCount(s.body, mult*max(s.hi, 0))
		}
		if n > fuzzMaxLaunch {
			return n
		}
	}
	return n
}

func kernelDepth(body []astKStmt) int {
	d := 0
	for _, s := range body {
		if f, ok := s.(*astKFor); ok {
			d = max(d, 1+kernelDepth(f.body))
		}
	}
	return d
}

// checkCompile is FuzzLangCompile's property. Compile never panics; every
// line of its error is positioned, and the lines come in source order; a
// program it accepts runs under ir.ExecSequential, where the only panic
// allowed is the region layer's report of an access outside the task's
// argument, which LANGUAGE.md documents as a runtime error.
func checkCompile(t *testing.T, src string) {
	ast, err := parse(src)
	compile, run := false, false
	if err == nil {
		if compile, run = fuzzBudget(ast); !compile {
			return
		}
	}
	prog, err := Compile(src)
	if err != nil {
		last := 0
		for _, line := range strings.Split(err.Error(), "\n") {
			rest, ok := strings.CutPrefix(line, "lang: line ")
			n, convErr := strconv.Atoi(rest[:max(strings.IndexByte(rest, ':'), 0)])
			if !ok || convErr != nil || n < last {
				t.Fatalf("error line %q is unpositioned or out of order in\n%v\nsource:\n%s", line, err, src)
			}
			last = n
		}
		return
	}
	if !run {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "region: point ") || !strings.Contains(msg, " outside footprint ") {
				t.Fatalf("ExecSequential panicked: %v\nsource:\n%s", r, src)
			}
		}
	}()
	ir.ExecSequential(prog)
}

// fuzzSeeds are the sources the fuzzer and its seeded twin start from.
func fuzzSeeds(t testing.TB) []string {
	seeds := []string{figure2Src, reduceSrc, scalarArgSrc, nestedSrc, grammarSrc, heatSrc(t)}
	for _, c := range brokenSrcs {
		seeds = append(seeds, c.src)
	}
	for _, c := range compileErrorCases {
		seeds = append(seeds, c.src)
	}
	return seeds
}

// FuzzLangCompile runs the front end on arbitrary text (checkCompile).
// A crasher is committed under testdata/fuzz/FuzzLangCompile/.
func FuzzLangCompile(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkCompile)
}

// TestLangCompileRandom is FuzzLangCompile's seeded twin under plain go
// test: each case applies one to four byte edits to a seed, drawing
// inserted bytes from the language's own alphabet.
func TestLangCompileRandom(t *testing.T) {
	seeds := fuzzSeeds(t)
	const alphabet = "0123456789-+*/=.,;:()[]{}# \nipxmod"
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 3000; i++ {
		src := []byte(seeds[rng.Intn(len(seeds))])
		for k := rng.Intn(4); k >= 0 && len(src) > 0; k-- {
			at := rng.Intn(len(src))
			switch rng.Intn(4) {
			case 0: // delete a byte
				src = append(src[:at], src[at+1:]...)
			case 1: // replace a byte
				src[at] = alphabet[rng.Intn(len(alphabet))]
			case 2: // insert a byte
				src = append(src[:at], append([]byte{alphabet[rng.Intn(len(alphabet))]}, src[at:]...)...)
			case 3: // duplicate a span
				end := min(len(src), at+1+rng.Intn(16))
				src = append(src[:end], append(append([]byte(nil), src[at:end]...), src[end:]...)...)
			}
		}
		checkCompile(t, string(src))
	}
}
