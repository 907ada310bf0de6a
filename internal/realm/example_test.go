package realm_test

import (
	"fmt"

	"repro/internal/realm"
)

// Example drives a two-node machine through realm.Exec: a task on node 0,
// whose completion releases a copy to node 1, whose arrival an agent on
// node 1 waits for.
func Example() {
	var x realm.Exec = realm.MustNewSim(realm.DefaultConfig(2))
	done := x.LaunchOn(0, realm.NoEvent, realm.Milliseconds(2), nil)
	arrived := x.CopyBytes(0, 1, 1<<20, done, nil)
	x.SpawnOn("consumer", 1, 0, func(a realm.Agent) {
		a.WaitEvent(arrived)
		fmt.Printf("data arrived at %.3f ms\n", float64(a.Now())/1e6)
	})
	if _, err := x.Drive(); err != nil {
		panic(err)
	}
	// Output:
	// data arrived at 2.106 ms
}
