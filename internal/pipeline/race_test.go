//go:build race

package pipeline

// raceDetectorEnabled reports a -race build. The race detector slows
// execution several-fold, so tests shorten their property checks
// under it, and the fast-forward allocation test skips there.
const raceDetectorEnabled = true
