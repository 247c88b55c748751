//go:build !race

package server

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation allocates on its own and invalidates AllocsPerRun gates.
const raceEnabled = false
