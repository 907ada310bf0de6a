package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The fixtures import only the standard library, which the source
// importer typechecks from GOROOT once for the whole test binary.
var (
	fixtureFset    = token.NewFileSet()
	fixtureImports = importer.ForCompiler(fixtureFset, "source", nil)
)

// loadAndRun typechecks each fixture file as a package of its own, named
// by its directory under the module path lintcheck, and runs every
// analyzer over them in path order.
func loadAndRun(t *testing.T, files map[string]string) []Diagnostic {
	t.Helper()
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var diags []Diagnostic
	for _, name := range names {
		f, err := parser.ParseFile(fixtureFset, name, files[name], parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		path := "lintcheck"
		if dir := filepath.Dir(name); dir != "." {
			path += "/" + dir
		}
		d, err := analyze(fixtureFset, fixtureImports, path, []*ast.File{f})
		if err != nil {
			t.Fatal(err)
		}
		diags = append(diags, d...)
	}
	return diags
}

// expect asserts one diagnostic per want entry, matched by analyzer name
// and message substring, in order.
func expect(t *testing.T, diags []Diagnostic, want ...[2]string) {
	t.Helper()
	if len(diags) != len(want) {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(want))
	}
	for i, w := range want {
		if diags[i].Analyzer != w[0] || !strings.Contains(diags[i].Message, w[1]) {
			t.Errorf("diagnostic %d = %s; want [%s] ...%s...", i, diags[i], w[0], w[1])
		}
	}
}

func TestWallclock(t *testing.T) {
	diags := loadAndRun(t, map[string]string{"a.go": `package a

import (
	"math/rand"
	"time"
)

func bad() (time.Time, time.Duration, int) {
	t0 := time.Now()
	rand.Shuffle(3, func(i, j int) {})
	return t0, time.Since(t0), rand.Intn(7)
}

func good(seed int64) (int, time.Time) {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(7), time.Unix(0, 0)
}
`})
	expect(t, diags,
		[2]string{"wallclock", "time.Now"},
		[2]string{"wallclock", "rand.Shuffle"},
		[2]string{"wallclock", "time.Since"},
		[2]string{"wallclock", "rand.Intn"},
	)
}

func TestMapRange(t *testing.T) {
	diags := loadAndRun(t, map[string]string{"a.go": `package a

import (
	"fmt"
	"sort"
)

func flagged(m map[string]int, ch chan string) []string {
	var lost []string
	for k := range m {
		fmt.Println(k) // call
		ch <- k        // send
		lost = append(lost, k)
	}
	return lost // never sorted
}

func clean(m map[string]int) (int, map[string]int, []string) {
	total := 0
	out := make(map[string]int, len(m))
	var keys []string
	for k, v := range m {
		total += v
		out[k] = int(int64(v)) // conversions and builtins are fine
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k)
	}
	return total, out, keys
}
`})
	expect(t, diags,
		[2]string{"maprange", "function call inside map iteration"},
		[2]string{"maprange", "channel send inside map iteration"},
		[2]string{"maprange", `slice "lost" collected from map iteration is never sorted`},
	)
}

func TestGoroutine(t *testing.T) {
	diags := loadAndRun(t, map[string]string{"a.go": `package a

func bad(done chan struct{}) {
	go func() { close(done) }()
}
`})
	expect(t, diags, [2]string{"goroutine", "go statement"})
}

func TestCondLoopWait(t *testing.T) {
	diags := loadAndRun(t, map[string]string{"a.go": `package a

import "sync"

type q struct {
	mu    sync.Mutex
	c     *sync.Cond
	ready bool
	wg    sync.WaitGroup
}

func (s *q) bad() {
	if !s.ready {
		s.c.Wait() // no re-check after wakeup
	}
}

func (s *q) naked() {
	s.c.Wait()
}

func (s *q) good() {
	for !s.ready {
		s.c.Wait()
	}
	s.wg.Wait() // WaitGroup.Wait needs no loop
}

func (s *q) goodNested() {
	for {
		if !s.ready {
			s.c.Wait()
			continue
		}
		return
	}
}
`})
	expect(t, diags,
		[2]string{"condloop", "sync.Cond.Wait outside a for loop"},
		[2]string{"condloop", "sync.Cond.Wait outside a for loop"},
	)
}

func TestCondLoopByValue(t *testing.T) {
	diags := loadAndRun(t, map[string]string{"a.go": `package a

import "sync"

type box struct{ mu sync.Mutex }

func lockParam(mu sync.Mutex)  { mu.Lock() }
func lockPtr(mu *sync.Mutex)   { mu.Lock() }
func groupParam(wg sync.WaitGroup) { wg.Wait() }

func copies(b *box) sync.Mutex {
	dup := b.mu // field copy
	var wg sync.WaitGroup
	use := func(g sync.WaitGroup) {}
	use(wg) // argument copy
	dup.Lock()
	return b.mu // returned by value
}

func clean(b *box) {
	var mu sync.Mutex // fresh zero value: initialization, not a copy
	p := &b.mu
	mu.Lock()
	p.Lock()
}
`})
	expect(t, diags,
		[2]string{"condloop", "sync.Mutex passed by value"},
		[2]string{"condloop", "sync.WaitGroup passed by value"},
		[2]string{"condloop", "sync.Mutex returned by value"},
		[2]string{"condloop", "sync.Mutex copied by value"},
		[2]string{"condloop", "sync.WaitGroup passed by value"},
		[2]string{"condloop", "sync.WaitGroup copied by value"},
	)
}

func TestIgnoreDirective(t *testing.T) {
	diags := loadAndRun(t, map[string]string{"a.go": `package a

import "time"

func suppressed() (time.Time, time.Time) {
	//detlint:ignore measured for a log line only, never fed back into the schedule
	a := time.Now()
	b := time.Now() //detlint:ignore same-line suppression
	return a, b
}

func bare() time.Time {
	//detlint:ignore
	return time.Now()
}
`})
	expect(t, diags,
		[2]string{"detlint", "requires a reason"},
		[2]string{"wallclock", "time.Now"},
	)
}

func TestPackageAllowlist(t *testing.T) {
	// A backend-style package: exempt from wallclock and goroutine, but the
	// maprange contract still applies there, and a sibling package with the
	// identical source stays fully checked.
	src := `package a

import (
	"fmt"
	"time"
)

func engine(done chan struct{}, m map[string]int) time.Time {
	go func() { close(done) }()
	for k := range m {
		fmt.Println(k)
	}
	return time.Now()
}
`
	Allowlist["lintcheck/engine"] = map[string]bool{"wallclock": true, "goroutine": true}
	defer delete(Allowlist, "lintcheck/engine")
	diags := loadAndRun(t, map[string]string{
		"engine/a.go": src,
		"core/a.go":   src,
	})
	expect(t, diags,
		// core/a.go: everything fires.
		[2]string{"goroutine", "go statement"},
		[2]string{"maprange", "map"},
		[2]string{"wallclock", "time.Now"},
		// engine/a.go: only maprange survives the allowlist.
		[2]string{"maprange", "map"},
	)
}
