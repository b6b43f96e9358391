//go:build !race

package symbolic

// raceEnabled gates allocation-count assertions, which are not
// meaningful under the race detector (it also makes sync.Pool drop
// items at random).
const raceEnabled = false
