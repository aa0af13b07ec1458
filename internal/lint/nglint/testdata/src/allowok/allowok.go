// Package allowok: every violation carries a justified annotation, so the
// runner must report nothing.
package allowok

import (
	"math/rand"
	"time"
)

// trailing form: comment on the violating line.
func uptime(start time.Time) time.Duration {
	return time.Since(start) //nglint:allow walltime operator-facing timing, never feeds a report
}

// standalone form: comment on the line above the violating line.
func jitter() int {
	//nglint:allow detflow fixture exercising the standalone annotation form
	return rand.Intn(10)
}
