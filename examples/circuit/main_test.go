package main

// Example runs the program and pins what it prints. The program checks
// its engines against sequential semantics bitwise in Real mode and exits
// through log.Fatal on any divergence; the pinned output fixes the printed
// values and virtual times.
func Example() {
	main()
	// Output:
	// graph: 96 nodes, 240 wires across 4 pieces; 26 shared + 32 ghost node references
	//
	// compiled loop body (note the reduction copies for distribute_charge):
	//   0: launch calc_new_currents
	//   1: launch distribute_charge
	//   2: reduce(+) PVT -> PVT (4 pairs)
	//   3: reduce(+) SHR -> SHR (4 pairs)
	//   4: reduce(+) GHOST -> SHR (12 pairs)
	//   5: launch update_voltages
	//   6: copy SHR -> GHOST (12 pairs)
	//
	// all executions agree bitwise ✓  (voltage[0] = 1.028653 after 6 steps)
	// virtual time: CR 28683567 vs implicit 36437933 (165 vs 246 messages)
}
