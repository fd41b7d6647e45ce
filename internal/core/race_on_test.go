//go:build race

package core

// raceEnabled reports that the test binary runs under the race
// detector, which slows the engine roughly tenfold; the heaviest
// corpus configurations are then left to the plain run.
const raceEnabled = true
