//go:build !race

package offt

const raceDetectorEnabled = false
