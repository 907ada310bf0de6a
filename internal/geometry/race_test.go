//go:build race

package geometry

func init() { raceEnabled = true }
