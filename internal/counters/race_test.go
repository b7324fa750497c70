//go:build race

package counters

// The race detector's sync.Pool drops a share of what is put back, so a
// batch through core.Collapse's pooled scratch may allocate it anew.
func init() { raceEnabled = true }
