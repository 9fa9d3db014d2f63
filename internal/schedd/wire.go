package schedd

import (
	"math"
	"strconv"

	"repro/internal/obs"
)

// Wire types of the HTTP API that internal/shard serves. Clients
// (schedctl, loadgen, bench) decode responses with them. Everything is
// plain JSON; errors are {"error": "..."} with the appropriate status
// code.

// TraceHeader carries the request trace ID. Clients may supply one (any
// non-empty value); the daemon mints a fresh ID otherwise and always
// echoes the effective ID back on the response.
const TraceHeader = "X-Trace-Id"

// IdemHeader carries the client-supplied idempotency key on POST
// /v1/jobs: a resubmission with the same key (including after a daemon
// crash and WAL recovery) returns the original job instead of admitting
// a duplicate.
const IdemHeader = "Idempotency-Key"

// SubmitJSON is the POST /v1/jobs request body.
type SubmitJSON struct {
	Width    int    `json:"width"`
	Estimate int64  `json:"estimate_s"`
	Runtime  int64  `json:"runtime_s,omitempty"`
	Source   string `json:"source,omitempty"`
	// Deadline is an optional start-SLO: the job must start within this
	// many virtual seconds of admission, or the digital twin rejects it
	// up front (429 with a deadline-aware Retry-After).
	Deadline int64 `json:"deadline_s,omitempty"`
}

// MetricJSON is one instrument of the GET /v1/metrics dump. Histogram
// bucket upper bounds are rendered as strings so the +Inf overflow
// bucket survives JSON. Labeled families expand into one entry per
// series, carrying the label pairs.
type MetricJSON struct {
	Name    string       `json:"name"`
	Kind    string       `json:"kind"`
	Labels  []obs.Label  `json:"labels,omitempty"`
	Value   int64        `json:"value"`
	Sum     float64      `json:"sum,omitempty"`
	Mean    float64      `json:"mean,omitempty"`
	Buckets []BucketJSON `json:"buckets,omitempty"`
}

// BucketJSON is one histogram bucket ("le" is the inclusive upper edge,
// "+Inf" for the overflow bucket).
type BucketJSON struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// MetricsToJSON converts a registry snapshot into the wire form.
func MetricsToJSON(ms []obs.Metric) []MetricJSON {
	out := make([]MetricJSON, 0, len(ms))
	for _, m := range ms {
		mj := MetricJSON{Name: m.Name, Kind: m.Kind, Labels: m.Labels, Value: m.Value, Sum: m.Sum, Mean: m.Mean}
		for _, b := range m.Buckets {
			le := "+Inf"
			if !math.IsInf(b.UpperBound, 1) {
				le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
			}
			mj.Buckets = append(mj.Buckets, BucketJSON{LE: le, Count: b.Count})
		}
		out = append(out, mj)
	}
	return out
}
