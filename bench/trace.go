package main

import (
	"encoding/json"
	"os"
	"time"
)

// Span names. A span is recorded by the benchmark around one call into a
// layer; the program itself is not instrumented.
const (
	spSend = iota // parent of one decomposed send
	spShortestPath
	spCompress
	spNewPacket
	spEngineRun
	spMinTx
	spSendReliable
	spWave // parent of one live-frames wave
	spInject
	spHandleFrame
	spFrame // parent of one session client frame
	spEncodeMsg
	spHandle // renamed by request and reply type once the reply is decoded
	spHandleSubmitAccept
	spHandleSubmitReject
	spHandleFetch
	spHandleAck
	spDecodeReply
	spDrain
	spPostboxPut
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spSend:               "core.Send",
	spShortestPath:       "buildinggraph.ShortestPath",
	spCompress:           "conduit.Compress",
	spNewPacket:          "core.NewPacket",
	spEngineRun:          "sim.Engine.Run",
	spMinTx:              "mesh.MinTransmissions",
	spSendReliable:       "core.SendReliable",
	spWave:               "bench.wave",
	spInject:             "agent.Inject",
	spHandleFrame:        "agent.HandleFrameFrom",
	spFrame:              "bench.frame",
	spEncodeMsg:          "session.EncodeMsg",
	spHandle:             "session.Handle",
	spHandleSubmitAccept: "session.Handle/submit-accept",
	spHandleSubmitReject: "session.Handle/submit-reject",
	spHandleFetch:        "session.Handle/fetch",
	spHandleAck:          "session.Handle/ack",
	spDecodeReply:        "session.DecodeReply",
	spDrain:              "session.Drain",
	spPostboxPut:         "postbox.Put",
}

// maxRawSpans bounds the spans kept verbatim for the trace file; the
// per-name totals cover every span of the run.
const maxRawSpans = 50_000

// span is one recorded call. Times are nanoseconds since the tracer was
// made; Parent indexes the kept spans (-1 for a root or a parent that was
// not kept); Op is the operation the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// spanTotal sums every span of one name.
type spanTotal struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	Total int64  `json:"total_ns"`
	Self  int64  `json:"self_ns"`
}

type openSpan struct {
	name     int
	start    int64
	children int64 // time covered by child spans so far
	kept     int32 // index in tracer.spans, -1 if over the cap
}

// tracer records spans in memory. Self time is a span's duration minus the
// time its children cover; children of one parent never overlap because the
// benchmark has one client goroutine. A nil tracer records nothing, so the
// untraced and the traced lap share their code.
type tracer struct {
	now    func() int64
	stack  []openSpan
	spans  []span
	totals [numSpanNames]spanTotal
	op     int32
	lost   int64 // spans beyond maxRawSpans, counted in totals only
}

func newTracer() *tracer {
	epoch := time.Now()
	return &tracer{now: func() int64 { return int64(time.Since(epoch)) }}
}

// begin opens a span. The clock is read last, and first in end, so that a
// span covers the call and not the tracer's own bookkeeping.
func (t *tracer) begin(name int) {
	if t == nil {
		return
	}
	o := openSpan{name: name, kept: -1}
	if len(t.spans) < maxRawSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].kept
		}
		o.kept = int32(len(t.spans))
		t.spans = append(t.spans, span{Parent: parent, Op: t.op})
	} else {
		t.lost++
	}
	t.stack = append(t.stack, o)
	t.stack[len(t.stack)-1].start = t.now()
}

// closed identifies a span that has ended, so that it can be renamed.
type closed struct {
	name      int
	dur, self int64
	kept      int32
}

// end closes the innermost open span.
func (t *tracer) end() closed {
	if t == nil {
		return closed{}
	}
	end := t.now()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	c := closed{name: o.name, dur: end - o.start, kept: o.kept}
	c.self = c.dur - o.children
	if n > 0 {
		t.stack[n-1].children += c.dur
	}
	t.totals[c.name].add(c, 1)
	if c.kept >= 0 {
		s := &t.spans[c.kept]
		s.Name, s.Start, s.End, s.Self = spanNames[c.name], o.start, end, c.self
	}
	return c
}

func (tot *spanTotal) add(c closed, sign int64) {
	tot.Count += sign
	tot.Total += sign * c.dur
	tot.Self += sign * c.self
}

// rename files an ended span under another name, for a call whose kind is
// only known once its result has been decoded.
func (t *tracer) rename(c closed, name int) {
	if t == nil {
		return
	}
	t.totals[c.name].add(c, -1)
	t.totals[name].add(c, 1)
	if c.kept >= 0 {
		t.spans[c.kept].Name = spanNames[name]
	}
}

// emptySpanNs is the duration the tracer measures for a span around
// nothing: the share of the clock reads that falls inside every span.
func emptySpanNs() float64 {
	t := newTracer()
	const n = 20_000
	for i := 0; i < n; i++ {
		t.begin(spFrame)
		t.end()
	}
	return float64(t.totals[spFrame].Total) / n
}

// nextOp starts the next operation; spans recorded until the next call
// carry its identifier.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// meanUs is the mean duration of the spans of one name, in microseconds.
func (t *tracer) meanUs(name int) float64 {
	tot := t.totals[name]
	if tot.Count == 0 {
		return 0
	}
	return float64(tot.Total) / float64(tot.Count) / 1e3
}

// meanSelfUs is meanUs over self time.
func (t *tracer) meanSelfUs(name int) float64 {
	tot := t.totals[name]
	if tot.Count == 0 {
		return 0
	}
	return float64(tot.Self) / float64(tot.Count) / 1e3
}

// write stores the kept spans and the per-name totals as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	var totals []spanTotal
	for i, tot := range t.totals {
		if tot.Count > 0 {
			tot.Name = spanNames[i]
			totals = append(totals, tot)
		}
	}
	doc := struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Totals   []spanTotal `json:"totals"`
		Lost     int64       `json:"spans_beyond_cap"`
		Spans    []span      `json:"spans"`
	}{workload, seed, totals, t.lost, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
