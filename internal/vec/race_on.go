//go:build race

package vec

const raceEnabled = true
