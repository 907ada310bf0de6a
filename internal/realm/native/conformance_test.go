package native

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/realm"
)

// TestExecConformance runs each row's realm.Exec script on the DES and on
// the native machine: both must observe exactly the row's outcome. It is
// the contract every system the harness compares relies on — events,
// merges, barriers, collectives, the machine counters, and the failure
// half (launch- and copy-indexed crashes and their fail events, seeded
// faults, an agent kill, a deadlock).
func TestExecConformance(t *testing.T) {
	const nodes = 4
	backends := []struct {
		name string
		make func() realm.Exec
	}{
		{"des", func() realm.Exec { return realm.MustNewSim(realm.DefaultConfig(nodes)) }},
		{"native", func() realm.Exec { return MustNewMachine(realm.DefaultConfig(nodes)) }},
	}
	rows := []struct {
		name   string
		script func(x realm.Exec) string
		want   string
	}{
		{"events", func(x realm.Exec) string {
			a, b := x.NewUserEvent(), x.ReserveEvents(3)
			var order []int
			x.OnTrigger(a, func() { order = append(order, 1) })
			x.OnTrigger(a, func() { order = append(order, 2) })
			before := x.Triggered(a)
			x.Trigger(a)
			x.OnTrigger(a, func() { order = append(order, 3) }) // runs inline
			x.Trigger(b + 1)
			var twice interface{}
			func() {
				defer func() { twice = recover() }()
				x.Trigger(a)
			}()
			return fmt.Sprint(before, order, x.Triggered(b), x.Triggered(b+1), x.Triggered(b+2),
				x.Triggered(realm.NoEvent), x.ReserveEvents(0) == realm.NoEvent,
				strings.HasSuffix(fmt.Sprint(twice), fmt.Sprintf("event %d triggered twice", a)))
		}, "false [1 2 3] false true false true true true"},

		{"waiter order", func(x realm.Exec) string {
			// The first waiter lives in the event's slot, the rest in the
			// table's waiter slab: registration order holds across the two.
			var out []string
			for _, n := range []int{1, 2, 5} {
				e := x.NewUserEvent()
				var order []int
				for i := 0; i < n; i++ {
					x.OnTrigger(e, func() { order = append(order, i) })
				}
				x.Trigger(e)
				out = append(out, fmt.Sprint(order))
			}
			// Re-entrant: while e's chain is being walked, its third waiter
			// registers on a fresh f and fires it, so f's waiters take the
			// slab nodes e's first ones just freed.
			e := x.NewUserEvent()
			var order []string
			for i := 0; i < 5; i++ {
				x.OnTrigger(e, func() {
					order = append(order, fmt.Sprint("e", i))
					if i != 2 {
						return
					}
					f := x.NewUserEvent()
					for j := 0; j < 3; j++ {
						x.OnTrigger(f, func() { order = append(order, fmt.Sprint("f", j)) })
					}
					x.Trigger(f)
				})
			}
			x.Trigger(e)
			out = append(out, fmt.Sprint(order))
			return strings.Join(out, " ")
		}, "[0] [0 1] [0 1 2 3 4] [e0 e1 e2 f0 f1 f2 e3 e4]"},

		{"trigger after", func(x realm.Exec) string {
			pre, e := x.NewUserEvent(), x.NewUserEvent()
			var order []string
			x.OnTrigger(pre, func() { order = append(order, "w1") })
			x.TriggerAfter(e, pre) // the second waiter on pre
			x.OnTrigger(pre, func() { order = append(order, fmt.Sprint("w3:", x.Triggered(e))) })
			x.OnTrigger(e, func() { order = append(order, "e") })
			pending := x.Triggered(e)
			x.Trigger(pre)
			fired, none := x.NewUserEvent(), x.NewUserEvent()
			x.TriggerAfter(fired, pre) // pre already fired: at once
			x.TriggerAfter(none, realm.NoEvent)
			var twice interface{}
			func() {
				defer func() { twice = recover() }()
				x.Trigger(e)
			}()
			return fmt.Sprint(pending, order, x.Triggered(e), x.Triggered(fired), x.Triggered(none),
				strings.HasSuffix(fmt.Sprint(twice), fmt.Sprintf("event %d triggered twice", e)))
		}, "false [w1 e w3:true] true true true true"},

		{"merge", func(x realm.Exec) string {
			a, b := x.NewUserEvent(), x.NewUserEvent()
			m := x.Merge(a, realm.NoEvent, b)
			first := x.Triggered(m)
			x.Trigger(a)
			second := x.Triggered(m)
			x.Trigger(b)
			return fmt.Sprint(first, second, x.Triggered(m), x.Triggered(x.Merge(a, b)), x.Merge() == realm.NoEvent)
		}, "false false true true true"},

		{"barrier", func(x realm.Exec) string {
			bar := x.Barrier(3)
			var released int32
			for i := 0; i < 3; i++ {
				x.SpawnOn(fmt.Sprintf("p%d", i), i%2, 0, func(a realm.Agent) {
					bar.Arrive(realm.NoEvent)
					a.WaitEvent(bar.Done())
					atomic.AddInt32(&released, 1)
				})
			}
			early := x.Triggered(bar.Done())
			_, err := x.Drive()
			return fmt.Sprint(err, early, x.Triggered(bar.Done()), released)
		}, "<nil> false true 3"},

		{"collective fold order", func(x realm.Exec) string {
			// A non-commutative fold, contributions released in reverse: the
			// result is the participant-index fold on every backend.
			c := x.Collective(4, 0, func(acc, v float64) float64 { return acc*10 + v })
			pres := x.ReserveEvents(4)
			for i := 0; i < 4; i++ {
				c.Contribute(i, pres+realm.Event(i), func() float64 { return float64(i + 1) })
			}
			x.SpawnOn("release", 0, 0, func(realm.Agent) {
				for i := 3; i >= 0; i-- {
					x.Trigger(pres + realm.Event(i))
				}
			})
			var got float64
			x.SpawnOn("reader", 1, 0, func(a realm.Agent) {
				a.WaitEvent(c.Done())
				got = c.Result()
			})
			_, err := x.Drive()
			return fmt.Sprint(err, got)
		}, "<nil> 1234"},

		{"counters", func(x realm.Exec) string {
			var bodies int32
			body := func() { atomic.AddInt32(&bodies, 1) }
			x.SpawnOn("issuer", 0, 0, func(a realm.Agent) {
				a.WaitEvent(x.Merge(
					x.LaunchOn(0, realm.NoEvent, realm.Microseconds(5), nil),
					x.LaunchOn(1, realm.NoEvent, realm.Microseconds(5), body),
					x.CopyBytes(0, 1, 100, realm.NoEvent, nil),
					x.CopyBytes(1, 1, 50, realm.NoEvent, body),
				))
			})
			_, err := x.Drive()
			st := x.Stats()
			return fmt.Sprint(err, bodies, st.TasksRun, st.Messages, st.BytesSent, st.LocalCopies)
		}, "<nil> 2 2 1 100 1"},

		{"launch crash", func(x realm.Exec) string {
			if err := x.InjectFaults(realm.FaultPlan{LaunchCrashes: []realm.LaunchCrash{{Node: 1, AtLaunch: 2}}}); err != nil {
				return err.Error()
			}
			var ran int32
			body := func() { atomic.AddInt32(&ran, 1) }
			var lost bool
			x.SpawnOn("issuer", 0, 0, func(a realm.Agent) {
				a.WaitEvent(x.LaunchOn(1, realm.NoEvent, realm.Microseconds(5), body))
				x.LaunchOn(1, realm.NoEvent, realm.Microseconds(5), body) // the crash point: lost
				lost = x.NodeFailed(1)
				a.WaitEvent(x.NodeFailEvent(1))
			})
			_, err := x.Drive()
			var crashed []int
			for _, c := range x.Crashes() {
				crashed = append(crashed, c.Node)
			}
			return fmt.Sprint(err, ran, lost, x.Triggered(x.NodeFailEvent(1)), crashed,
				x.FaultStats().Crashes, x.NodeFailed(0))
		}, "<nil> 1 true true [1] 1 false"},

		{"copy crash", func(x realm.Exec) string {
			if err := x.InjectFaults(realm.FaultPlan{CopyCrashes: []realm.CopyCrash{{Node: 1, AtCopy: 3}}}); err != nil {
				return err.Error()
			}
			var delivered int32
			body := func() { atomic.AddInt32(&delivered, 1) }
			var lost bool
			x.SpawnOn("issuer", 0, 0, func(a realm.Agent) {
				a.WaitEvent(x.CopyBytes(0, 1, 8, realm.NoEvent, body)) // node 1's copy 1
				a.WaitEvent(x.CopyBytes(1, 1, 8, realm.NoEvent, body)) // copy 2: a local copy counts once
				x.CopyBytes(0, 1, 8, realm.NoEvent, nil)               // copy 3, the crash point: lost
				lost = x.NodeFailed(1)
				x.CopyBytes(1, 2, 8, realm.NoEvent, body) // from a dead node: lost
				a.WaitEvent(x.CopyBytes(0, 2, 8, realm.NoEvent, body))
				a.WaitEvent(x.NodeFailEvent(1))
			})
			_, err := x.Drive()
			var crashed []int
			for _, c := range x.Crashes() {
				crashed = append(crashed, c.Node)
			}
			return fmt.Sprint(err, delivered, lost, crashed, x.FaultStats().Crashes, x.Stats().Messages)
		}, "<nil> 3 true [1] 1 2"},

		{"seeded faults", func(x realm.Exec) string {
			// One issuer numbers every node's launches and copies the same
			// way on both backends, so the plan's decision functions
			// predict every fault: a node's crash at the first launch that
			// draws one, stragglers among its launches before that, and
			// duplicates and drops on the copies between surviving nodes.
			fp := realm.FaultPlan{Seed: 11, CrashRate: 0.02, DropRate: 0.2, DupRate: 0.2,
				StragglerRate: 0.3, StragglerFactor: 2, RetransmitTimeout: realm.Microseconds(1)}
			if err := x.InjectFaults(fp); err != nil {
				return err.Error()
			}
			const launches, copies = 30, 30
			x.SpawnOn("issuer", 0, 0, func(realm.Agent) {
				for k := 0; k < launches; k++ {
					for n := 0; n < nodes; n++ {
						x.LaunchOn(n, realm.NoEvent, realm.Microseconds(1), nil)
					}
				}
				for k := 0; k < copies; k++ {
					for n := 0; n < nodes; n++ {
						x.CopyBytes(n, (n+1)%nodes, 64, realm.NoEvent, nil)
					}
				}
			})
			_, err := x.Drive()
			var want realm.FaultStats
			dead := make([]bool, nodes)
			for n := 0; n < nodes; n++ {
				for k := uint64(1); k <= launches && !dead[n]; k++ {
					crash, straggle := fp.LaunchFault(n, k)
					if dead[n] = crash; crash {
						want.Crashes++
					} else if straggle {
						want.Stragglers++
					}
				}
			}
			for n := 0; n < nodes; n++ {
				for k := uint64(1); k <= copies && !dead[n] && !dead[(n+1)%nodes]; k++ {
					dup, drops := fp.CopyFault(n, k)
					if dup {
						want.Dups++
					}
					want.Drops += int64(drops)
				}
			}
			var crashed []int
			for _, c := range x.Crashes() {
				crashed = append(crashed, c.Node)
			}
			sort.Ints(crashed)
			got := x.FaultStats()
			return fmt.Sprint(err, crashed, got, got == want)
		}, "<nil> [1 2] {2 4 6 36} true"},

		{"kill agent", func(x realm.Exec) string {
			never := x.NewUserEvent()
			var survived int32
			victim := x.SpawnOn("victim", 1, 0, func(a realm.Agent) {
				a.WaitEvent(never)
				atomic.StoreInt32(&survived, 1)
			})
			x.SpawnOn("ctl", 0, 0, func(realm.Agent) {
				x.KillAgent(victim)
				x.KillAgent(victim) // killing twice is a no-op
				x.Quiesce()
			})
			_, err := x.Drive()
			return fmt.Sprint(err, survived, x.Triggered(never))
		}, "<nil> 0 false"},

		{"deadlock", func(x realm.Exec) string {
			// A barrier short one arrival: both agents block on it for good.
			// Each backend decides that at once, with no timing knob, and
			// names the same agents; only native labels the primitive.
			bar := x.Barrier(3)
			for i := 0; i < 2; i++ {
				x.SpawnOn(fmt.Sprintf("stuck-%d", i), i, 0, func(a realm.Agent) {
					bar.Arrive(realm.NoEvent)
					a.WaitEvent(bar.Done())
				})
			}
			start := time.Now()
			_, err := x.Drive()
			quick := time.Since(start) < 2*time.Second
			var derr *realm.DeadlockError
			if !errors.As(err, &derr) {
				return fmt.Sprintf("%T: %v", err, err)
			}
			var names []string
			labeled := true
			for _, b := range derr.Blocked {
				names = append(names, b.Name)
				want := ""
				if x.Backend() == "native" {
					want = "barrier"
				}
				labeled = labeled && b.Waiting == bar.Done() && b.Primitive == want
			}
			sort.Strings(names)
			return fmt.Sprint(names, labeled, quick)
		}, "[stuck-0 stuck-1] true true"},
	}
	for _, row := range rows {
		for _, b := range backends {
			t.Run(row.name+"/"+b.name, func(t *testing.T) {
				if got := row.script(b.make()); got != row.want {
					t.Errorf("observed %q, want %q", got, row.want)
				}
			})
		}
	}
}
