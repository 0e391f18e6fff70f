// Package tokenbucket is the one token-bucket arithmetic of the tree: the
// live agent's per-source and byte budgets, the simulator's defense rate
// gate and session admission all charge through a Bucket.
//
// A Bucket is a value on a clock in seconds. Its owner keeps the storage,
// the rate and the burst, and checks its own "disabled" setting, so a
// bucket costs two floats wherever it lives.
package tokenbucket

// Bucket holds Tokens as of clock reading Last, in seconds.
type Bucket struct {
	Tokens, Last float64
}

// Full returns a bucket holding burst tokens at now.
func Full(burst, now float64) Bucket { return Bucket{Tokens: burst, Last: now} }

// Allow refills b for the time since Last at rate tokens a second, capped at
// burst, then takes cost tokens if it holds them. A reading at or before
// Last refills nothing and leaves Last alone, so a clock that steps back
// grants no tokens.
func (b *Bucket) Allow(now, rate, burst, cost float64) bool {
	if now > b.Last {
		b.Tokens += (now - b.Last) * rate
		if b.Tokens > burst {
			b.Tokens = burst
		}
		b.Last = now
	}
	if b.Tokens < cost {
		return false
	}
	b.Tokens -= cost
	return true
}

// Burst returns burst, or twice rate when burst is not positive: the depth a
// bucket configured with burst 0 gets.
func Burst(rate, burst float64) float64 {
	if burst <= 0 {
		return 2 * rate
	}
	return burst
}
