package main

// Example runs the program and pins what it prints. The program checks
// its engines against sequential semantics bitwise in Real mode and exits
// through log.Fatal on any divergence; the pinned output fixes the printed
// values and virtual times.
func Example() {
	main()
	// Output:
	// mesh: 192 zones, 221 points, 4 pieces
	// compiled cycle:
	//   0: launch zone_calcs
	//   1: launch corner_forces
	//   2: reduce(+) PVT -> PVT (4 pairs)
	//   3: reduce(+) SHR -> SHR (3 pairs)
	//   4: reduce(+) GHOST -> SHR (5 pairs)
	//   5: launch adv_points
	//   6: copy SHR -> GHOST (5 pairs)
	//   7: launch calc_dt  (min-reduce into scalar "dt" via dynamic collective)
	//
	// after 5 cycles: dt = 0.000485125, corner point <6,8> at (6.0200, 8.0200) — bitwise identical to sequential ✓
	// virtual elapsed 21099417, 71 messages (halo positions + corner-force reductions + dt collectives)
}
