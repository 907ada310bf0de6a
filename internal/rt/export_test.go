package rt

// Fixtures shared with the external schedule golden (package rt_test).
var (
	RepartitionProgram   = repartitionProgram
	NonStationaryProgram = nonStationaryProgram
)
