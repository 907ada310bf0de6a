package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/ir"
	"repro/internal/region"
)

// checksum is the FNV-1a hash of a run's final state: every field of every
// root region in creation order, as raw float bits, then the scalar
// environment in key order. Two runs agree bitwise exactly when their
// checksums agree (up to hash collision), which is how Real-mode cells are
// compared with the ir.ExecSequential reference without committing stores.
func checksum(stores map[*region.Region]*region.Store, env ir.MapEnv) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	roots := make([]*region.Region, 0, len(stores))
	for r := range stores {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ID() < roots[j].ID() })
	for _, r := range roots {
		st := stores[r]
		h.Write([]byte(r.Name()))
		for _, f := range st.FieldSpace().Fields() {
			h.Write([]byte(st.FieldSpace().Name(f)))
			for _, v := range st.Raw(f) {
				put(v)
			}
		}
	}
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h.Write([]byte(k))
		put(env[k])
	}
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

// seqChecksum runs the program on the sequential interpreter — the oracle,
// never the compiler under test — and returns the checksum of its result.
func seqChecksum(prog *ir.Program) string {
	res := ir.ExecSequential(prog)
	return checksum(res.Stores, res.Env)
}

// references are the expected outputs of a workload's cells, keyed by cell
// name. They live in benchmark/expected/<workload>.<scale>.txt as
// "== <cell>" header lines followed by the cell's expected text, a format
// that diffs line by line when a modeled figure moves.
type references map[string]string

const sectionMark = "== "

func referencePath(dir, workload, scale string) string {
	return filepath.Join(dir, workload+"."+scale+".txt")
}

func loadReferences(path string) (references, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	refs := references{}
	var name string
	var body []string
	flush := func() {
		if name != "" {
			refs[name] = strings.Join(body, "\n")
		}
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, sectionMark) {
			flush()
			name, body = strings.TrimPrefix(line, sectionMark), nil
			continue
		}
		body = append(body, line)
	}
	flush()
	return refs, sc.Err()
}

func (r references) write(path string) error {
	names := make([]string, 0, len(r))
	for n := range r {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(sectionMark + n + "\n")
		b.WriteString(r[n] + "\n")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
