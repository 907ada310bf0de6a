//go:build race

package verify_test

func init() { raceEnabled = true }
