//go:build race

package arena

const raceEnabled = true
