package obs

import "time"

// Phase is one timed segment of a traced operation, with an optional byte
// count attributed to it (encode output, shipment payload, fetch size).
type Phase struct {
	Name     string
	Duration time.Duration
	Bytes    int64
}

// Tracer mints per-operation spans and folds their phase timings into the
// registry: one histogram of whole-operation durations per op, one histogram
// of per-phase durations per (op, phase), and byte counters per (op, phase).
// With a Recorder attached (SetRecorder), every finished span — successful or
// failed — is additionally retained in the flight recorder with its labels.
// A nil Tracer is valid and records nothing.
type Tracer struct {
	clock        Clock
	spans        *CounterVec
	seconds      *HistogramVec
	phaseSeconds *HistogramVec
	phaseBytes   *CounterVec
	recorder     *Recorder
}

// SetRecorder retains finished spans in rec (nil detaches).
func (t *Tracer) SetRecorder(rec *Recorder) {
	if t != nil {
		t.recorder = rec
	}
}

// NewTracer registers the span instruments under the given metric prefix
// (e.g. "objectswap_swap" yields objectswap_swap_spans_total,
// objectswap_swap_seconds, objectswap_swap_phase_seconds,
// objectswap_swap_phase_bytes_total).
func NewTracer(r *Registry, prefix string) *Tracer {
	return &Tracer{
		clock: r.Clock(),
		spans: r.CounterVec(prefix+"_spans_total",
			"Completed operation spans by operation.", "op"),
		seconds: r.HistogramVec(prefix+"_seconds",
			"Whole-operation duration by operation.", nil, "op"),
		phaseSeconds: r.HistogramVec(prefix+"_phase_seconds",
			"Per-phase duration by operation and phase.", nil, "op", "phase"),
		phaseBytes: r.CounterVec(prefix+"_phase_bytes_total",
			"Bytes handled per operation phase.", "op", "phase"),
	}
}

// Span is one in-flight traced operation. It keeps only timing: phases are
// sequential, and starting a phase closes the previous one. The correlation
// labels arrive when the span finishes (End, Fail), from the record of the
// operation it timed. A nil Span is valid and records nothing.
type Span struct {
	t          *Tracer
	op         string
	start      time.Time
	phaseStart time.Time
	open       bool
	phases     []Phase
}

// Labels correlate a finished span with the operation it timed; the flight
// recorder retains them on its SpanRecord.
type Labels struct {
	Trace    string
	Device   string
	Cluster  uint32
	Key      string
	Replicas []string
	Format   string
}

// Start opens a span for the named operation.
func (t *Tracer) Start(op string) *Span {
	if t == nil {
		return nil
	}
	now := t.clock.Now()
	return &Span{t: t, op: op, start: now, phaseStart: now}
}

// Phase closes the current phase (if any) and opens the named one.
func (s *Span) Phase(name string) {
	if s == nil {
		return
	}
	now := s.t.clock.Now()
	s.closePhase(now)
	s.phases = append(s.phases, Phase{Name: name})
	s.phaseStart = now
	s.open = true
}

// AddBytes attributes n bytes to the current phase.
func (s *Span) AddBytes(n int64) {
	if s == nil || !s.open || n <= 0 {
		return
	}
	s.phases[len(s.phases)-1].Bytes += n
}

func (s *Span) closePhase(now time.Time) {
	if !s.open {
		return
	}
	s.phases[len(s.phases)-1].Duration = now.Sub(s.phaseStart)
	s.open = false
}

// End closes the span, records every phase into the tracer's instruments,
// retains it with labels l in the flight recorder (outcome "ok"), and returns
// the phase breakdown plus the whole-operation duration (for attachment to
// an event payload).
func (s *Span) End(l Labels) ([]Phase, time.Duration) {
	if s == nil {
		return nil, 0
	}
	now := s.t.clock.Now()
	s.closePhase(now)
	total := now.Sub(s.start)
	s.t.spans.With(s.op).Inc()
	s.t.seconds.With(s.op).Observe(total.Seconds())
	for _, p := range s.phases {
		s.t.phaseSeconds.With(s.op, p.Name).Observe(p.Duration.Seconds())
		if p.Bytes > 0 {
			s.t.phaseBytes.With(s.op, p.Name).Add(float64(p.Bytes))
		}
	}
	s.record(l, "ok", "", total)
	return s.phases, total
}

// Fail closes the span with outcome "error" and retains it with labels l —
// whatever was known when the operation died — in the flight recorder.
// Failed spans do not feed the duration histograms — error counting lives in
// dedicated counters — but their partial phase breakdown is exactly what a
// post-incident look-back needs ("it died mid-ship after 9.8s").
func (s *Span) Fail(l Labels, err error) {
	if s == nil {
		return
	}
	now := s.t.clock.Now()
	s.closePhase(now)
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	s.record(l, "error", detail, now.Sub(s.start))
}

// record retains the finished span in the tracer's flight recorder, if any.
func (s *Span) record(l Labels, outcome, errDetail string, total time.Duration) {
	rec := s.t.recorder
	if rec == nil {
		return
	}
	sr := SpanRecord{
		Op:         s.op,
		Trace:      l.Trace,
		Device:     l.Device,
		Cluster:    l.Cluster,
		Key:        l.Key,
		Replicas:   append([]string(nil), l.Replicas...),
		Format:     l.Format,
		Outcome:    outcome,
		Error:      errDetail,
		Start:      s.start,
		DurationNS: total.Nanoseconds(),
	}
	if len(s.phases) > 0 {
		sr.Phases = make([]PhaseRecord, len(s.phases))
		for i, p := range s.phases {
			sr.Phases[i] = PhaseRecord{Name: p.Name, DurationNS: p.Duration.Nanoseconds(), Bytes: p.Bytes}
		}
	}
	rec.RecordSpan(sr)
}
