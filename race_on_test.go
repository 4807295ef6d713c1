//go:build race

package offt

const raceDetectorEnabled = true
