//go:build race

package realm

func init() { raceEnabled = true }
