//go:build race

package server

// raceEnabled reports a -race build, where sync.Pool drops entries at
// random and allocation budgets do not hold.
const raceEnabled = true
