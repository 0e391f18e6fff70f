package session

// Admission control: a per-client token bucket in front of a tiered
// hashcash demand. The token bucket, a tokenbucket.Bucket on the session's
// clock of seconds, caps any single client's sustained rate; the
// proof-of-work tiers throttle the aggregate when the AP's forwarding queue
// backs up. Like internal/agent's neighbor limiter, the client table is
// bounded, and at capacity the stalest entry is recycled so the table
// itself cannot be used to exhaust memory.

// Tier is the AP's load state, derived from forwarding-queue depth. It is
// advertised to clients on every accept/reject so backpressure is explicit
// rather than inferred from drops.
type Tier uint8

const (
	// TierNormal admits any message that passes the rate limit.
	TierNormal Tier = iota
	// TierCongested demands a modest proof-of-work per message.
	TierCongested
	// TierOverload demands an expensive proof-of-work per message.
	TierOverload
)

func (t Tier) String() string {
	switch t {
	case TierNormal:
		return "normal"
	case TierCongested:
		return "congested"
	case TierOverload:
		return "overload"
	default:
		return "tier?"
	}
}

// Cause attributes one rejected or dropped message to exactly one reason.
// Together with delivery, the causes partition every offered message:
// offered = delivered + queued + Σ per-cause counts.
type Cause uint8

const (
	// CauseNone marks an accepted message (used in TAccept replies).
	CauseNone Cause = iota
	// CauseAdmission: the submit lacked a sufficient proof-of-work for the
	// current tier (or came from an unattached client).
	CauseAdmission
	// CauseRateLimit: the client's token bucket was empty.
	CauseRateLimit
	// CauseBufferFull: the session send buffer or the AP queue was full.
	CauseBufferFull
	// CauseNetworkExhausted: the message was accepted but the delivery
	// ladder ran out of rungs before reaching the destination.
	CauseNetworkExhausted
)

func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseAdmission:
		return "admission"
	case CauseRateLimit:
		return "rate-limit"
	case CauseBufferFull:
		return "buffer-full"
	case CauseNetworkExhausted:
		return "network-exhausted"
	default:
		return "cause?"
	}
}

// Admission defaults.
const (
	// DefaultClientRate is the sustained per-client submit rate (msgs/sec).
	DefaultClientRate = 0.2
	// DefaultClientBurst is the per-client bucket depth.
	DefaultClientBurst = 3
	// maxSessions bounds the session/bucket table.
	maxSessions = 4096
	// congestedAt is the queue-depth fraction entering TierCongested.
	congestedAt = 0.5
	// overloadAt is the queue-depth fraction entering TierOverload.
	overloadAt = 0.85
	// DefaultPowBitsCongested is the hashcash difficulty at TierCongested
	// (~256 expected hashes: trivial for a phone, fatal for a tight loop).
	DefaultPowBitsCongested = 8
	// DefaultPowBitsOverload is the hashcash difficulty at TierOverload
	// (~4096 expected hashes).
	DefaultPowBitsOverload = 12
)

// tierFor maps queue depth to a load tier.
func tierFor(depth, capacity int) Tier {
	if capacity <= 0 {
		return TierNormal
	}
	frac := float64(depth) / float64(capacity)
	switch {
	case frac >= overloadAt:
		return TierOverload
	case frac >= congestedAt:
		return TierCongested
	default:
		return TierNormal
	}
}
