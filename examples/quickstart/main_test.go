package main

// Example runs the program and pins what it prints. The program checks
// its engines against sequential semantics bitwise in Real mode and exits
// through log.Fatal on any divergence; the pinned output fixes the printed
// values and virtual times.
func Example() {
	main()
	// Output:
	// sequential:  A[0..5] = 222 238 254 270 286 302
	// implicit:    elapsed 31153591 virtual, 128 tasks, 64 messages
	//
	// control-replicated loop body (compare Figure 4b):
	//   0: launch TF over 8 points
	//   1: copy PB -> QB (16 pairs)
	//   2: launch TG over 8 points
	// shards: 4, each owning 2 launch points
	//
	// spmd (CR):   elapsed 403198 virtual, 192 tasks, 46 messages
	//
	// all three executions produced bitwise-identical region contents ✓
}
