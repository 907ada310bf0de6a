package realm

import (
	"fmt"
	"sort"
)

// Futures is a scalar environment whose bindings may be futures (§4.4): a
// launch's scalar reduction binds its destination at issue time to an event
// plus a thunk producing the value once the event has triggered, and a read
// forces it — the reading agent waits on the event, so that wait is part of
// the schedule. A forced future is memoized as a concrete binding. It
// implements ir.Env; only its agent touches it.
type Futures struct {
	who  string // engine name prefixed to the unbound-scalar panic
	a    Agent
	vals map[string]float64
	futs map[string]future
}

type future struct {
	ev  Event
	val func() float64
}

// NewFutures returns an environment read by agent a, starting from a copy
// of base.
func NewFutures(who string, a Agent, base map[string]float64) *Futures {
	vals := make(map[string]float64, len(base))
	for k, v := range base {
		vals[k] = v
	}
	return &Futures{who: who, a: a, vals: vals, futs: make(map[string]future)}
}

// Get returns name's value, forcing a future binding.
func (f *Futures) Get(name string) float64 {
	if fu, ok := f.futs[name]; ok {
		f.a.WaitEvent(fu.ev)
		f.vals[name] = fu.val()
		delete(f.futs, name)
	}
	v, ok := f.vals[name]
	if !ok {
		panic(fmt.Sprintf("%s: unbound scalar %q", f.who, name))
	}
	return v
}

// Set binds name to a concrete value.
func (f *Futures) Set(name string, v float64) {
	delete(f.futs, name)
	f.vals[name] = v
}

// SetFuture binds name to val, readable once ev has triggered.
func (f *Futures) SetFuture(name string, ev Event, val func() float64) {
	f.futs[name] = future{ev: ev, val: val}
}

// Snapshot forces every pending future, in sorted name order so the waits
// are deterministic, and returns a copy of the concrete bindings.
func (f *Futures) Snapshot() map[string]float64 {
	names := make([]string, 0, len(f.futs))
	for name := range f.futs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Get(name)
	}
	out := make(map[string]float64, len(f.vals))
	for k, v := range f.vals {
		out[k] = v
	}
	return out
}
