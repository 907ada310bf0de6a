package main

// Example runs the program and pins what it prints. The program checks
// its engines against sequential semantics bitwise in Real mode and exits
// through log.Fatal on any divergence; the pinned output fixes the printed
// values and virtual times.
func Example() {
	main()
	// Output:
	// grid 64x64 over 2x2 tiles, radius 2
	// compiled loop body:
	//   0: launch stencil
	//   1: launch add
	//   2: copy SIN -> QIN (8 pairs)
	// halo exchange: 512 of 4096 grid points per iteration (12.50%) — the private interior moves nothing
	//
	// verified against sequential execution ✓  (out[<32,32>] = 150.0000 after 5 iterations)
	//
	// weak scaling, throughput per node (10^6 points/s), paper-size tiles:
	// nodes       regent-cr  regent-nocr          mpi   mpi-openmp
	// 1              1395.3       1389.9       1395.3       1394.2
	// 4              1395.2       1369.3       1395.2       1394.1
	// 16             1395.2       1236.6       1395.1       1394.0
}
