package main

// Example runs the program and pins what it prints. The program checks
// its engines against sequential semantics bitwise in Real mode and exits
// through log.Fatal on any divergence; the pinned output fixes the printed
// values and virtual times.
func Example() {
	main()
	// Output:
	// compiled source program:
	// program heat
	//   region T(64 elements) fields {cur}
	//     partition PT (disjoint complete, 8 colors)
	//     partition HALO (aliased, 8 colors)
	//   region TNEW(64 elements) fields {next}
	//     partition PNEW (disjoint complete, 8 colors)
	//   task diffuse(out.next: reads writes; in.cur: reads)
	//   task commit(t.cur: reads writes; n.next: reads)
	//   task energy(t.cur: reads)
	//   fill T.cur = fn(point)
	//   fill TNEW.next = 0
	//   for step = 0, 6 do
	//     for i in 8 launch diffuse(PNEW[i], HALO[i])
	//     for i in 8 launch commit(PT[i], PNEW[i])
	//     for i in 8 launch energy(PT[i]) -> + total
	//   end
	//
	// control-replicated main loop:
	//   0: launch diffuse
	//   1: launch commit
	//   2: copy PT -> HALO (24 pairs)
	//   3: launch energy
	//
	// total energy after 6 steps: 2019.8400 — CR bitwise identical to sequential ✓
	// virtual elapsed 909210, 78 messages
}
