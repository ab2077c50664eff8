//go:build race

package server_test

// raceEnabled reports a -race build, where sync.Pool drops a share of
// what it is given on purpose, so allocation counts are not the warm
// path's.
const raceEnabled = true
