//go:build race

package region

func init() { raceEnabled = true }
