package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format, rendered directly from a Stats snapshot — no client library, no
// registry, just the counters the pool already keeps.  Counters are per
// bundle generation (a reload resets them); nwserved_bundle_generation
// rising tells a scraper why.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st, err := s.acquire()
	if err != nil {
		writeError(w, err)
		return
	}
	defer st.release()

	stats := st.pool.Stats()
	rate := s.rates.observe(time.Now(), stats.Events)

	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatFloat(v))
	}

	counter("nwserved_documents_served_total", "Documents completed, successfully or not.", stats.Served)
	counter("nwserved_documents_failed_total", "Documents whose result carries an error.", stats.Failed)
	counter("nwserved_documents_canceled_total", "Failed documents whose error was context cancellation.", stats.Canceled)
	counter("nwserved_documents_rejected_total", "Fail-fast submissions refused with a full shard queue.", stats.Rejected)
	counter("nwserved_events_total", "Events consumed by successful passes.", stats.Events)
	counter("nwserved_reloads_total", "Completed bundle reloads.", s.reloads.Load())
	gauge("nwserved_bundle_generation", "Active bundle generation (rises on every reload).", float64(st.info.Generation))
	gauge("nwserved_events_per_second", "Event throughput between the last two scrapes.", rate)
	gauge("nwserved_uptime_seconds", "Seconds since the server started.", time.Since(s.start).Seconds())

	fmt.Fprintf(&b, "# HELP nwserved_shard_queue_depth Documents waiting in the shard's bounded queue.\n# TYPE nwserved_shard_queue_depth gauge\n")
	for _, sh := range stats.Shards {
		fmt.Fprintf(&b, "nwserved_shard_queue_depth{shard=\"%d\"} %d\n", sh.Shard, sh.QueueDepth)
	}
	fmt.Fprintf(&b, "# HELP nwserved_shard_queue_capacity The shard queue's bound.\n# TYPE nwserved_shard_queue_capacity gauge\n")
	for _, sh := range stats.Shards {
		fmt.Fprintf(&b, "nwserved_shard_queue_capacity{shard=\"%d\"} %d\n", sh.Shard, sh.QueueCap)
	}
	fmt.Fprintf(&b, "# HELP nwserved_shard_documents_served_total Documents completed by the shard.\n# TYPE nwserved_shard_documents_served_total counter\n")
	for _, sh := range stats.Shards {
		fmt.Fprintf(&b, "nwserved_shard_documents_served_total{shard=\"%d\"} %d\n", sh.Shard, sh.Served)
	}
	fmt.Fprintf(&b, "# HELP nwserved_shard_events_total Events consumed by the shard's successful passes.\n# TYPE nwserved_shard_events_total counter\n")
	for _, sh := range stats.Shards {
		fmt.Fprintf(&b, "nwserved_shard_events_total{shard=\"%d\"} %d\n", sh.Shard, sh.Events)
	}

	lat := stats.Latency
	fmt.Fprintf(&b, "# HELP nwserved_document_latency_seconds Submit-to-result latency, queue wait included.\n# TYPE nwserved_document_latency_seconds histogram\n")
	for _, bk := range lat.Buckets {
		fmt.Fprintf(&b, "nwserved_document_latency_seconds_bucket{le=\"%s\"} %d\n",
			formatFloat(bk.UpperBound.Seconds()), bk.Count)
	}
	fmt.Fprintf(&b, "nwserved_document_latency_seconds_bucket{le=\"+Inf\"} %d\n", lat.Count)
	fmt.Fprintf(&b, "nwserved_document_latency_seconds_sum %s\n", formatFloat(lat.Sum.Seconds()))
	fmt.Fprintf(&b, "nwserved_document_latency_seconds_count %d\n", lat.Count)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

// formatFloat renders a float the way Prometheus text exposition expects:
// shortest representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
