package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// The exposition server (ISSUE 3): obs.Handler serves every observability
// surface of the process over HTTP —
//
//	/metrics        counters and histogram buckets in Prometheus text
//	                format, plus the windowed *_1m quantile and rate
//	                families when the timeline is ticking
//	/debug/slow     the Slow ring's slowest operations as JSON
//	/debug/requests the ring's served requests with their shard trees
//	                (?format=chrome: as Chrome trace_event JSON)
//	/debug/timeline the timeline ring: periodic windowed-quantile /
//	                rate / runtime snapshots, oldest first, as JSON
//	/debug/health   the structured ok/degraded/unhealthy verdict (503
//	                when unhealthy)
//	/debug/pprof    the runtime profiler endpoints
//
// Metric names follow the hyperdom_* convention: the registry name with
// every non-alphanumeric rune mapped to '_' behind a "hyperdom_" prefix,
// and histogram families suffixed "_seconds" with nanosecond bounds
// converted to seconds, per Prometheus base-unit convention.

// promName sanitizes a registry name into a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + len("hyperdom_"))
	b.WriteString("hyperdom_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// writeSamples writes one sample line per table key of m ("name|pairs", see
// table.go) in exposition order — `name value`, or `name{pairs} value` —
// under one # TYPE line per family. suffix extends the sanitized name.
func writeSamples[V any](w io.Writer, typ, suffix string, m map[string]V) error {
	family := ""
	for _, key := range labeledKeys(m) {
		name, labels := splitLabeled(key)
		pn := promName(name) + suffix
		if pn != family {
			family = pn
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", pn, typ); err != nil {
				return err
			}
		}
		if labels != "" {
			pn += "{" + labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s %v\n", pn, m[key]); err != nil {
			return err
		}
	}
	return nil
}

// WriteMetrics writes the whole registry — counters (flat and labeled),
// then gauges, then histogram families, then the windowed families — in
// Prometheus text exposition format. The scrape takes one reading of the
// registry and uses it twice: as the cumulative part, and as the later end
// of the window.
func WriteMetrics(w io.Writer) error {
	now := reading{when: time.Now(), counters: Snapshot()}
	if err := writeSamples(w, "counter", "", now.counters); err != nil {
		return err
	}
	if err := writeSamples(w, "gauge", "", gaugeSnapshot()); err != nil {
		return err
	}

	family := ""
	for _, h := range Histograms() {
		pn := promName(h.Name()) + "_seconds"
		if pn != family {
			family = pn
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
				return err
			}
		}
		s := h.Snap()
		now.add(s)
		if err := writeHistogram(w, pn, h.Labels(), s); err != nil {
			return err
		}
	}
	return writeWindow(w, windowOf(now))
}

// writeWindow emits the sliding-window families: per-family windowed
// quantile gauges suffixed "_1m" (nominal — the true span is the window's)
// and windowed per-second counter rates suffixed "_rate_1m". Gauge typed:
// windowed values go down as well as up. Idle families and unmoved counters
// are left out, and with no window there is nothing to write.
func writeWindow(w io.Writer, win window) error {
	for _, name := range labeledKeys(win.families) {
		ws := win.families[name]
		if ws.Count == 0 {
			continue
		}
		pn := promName(name) + "_seconds_1m"
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", pn); err != nil {
			return err
		}
		for _, q := range [...]struct {
			label string
			p     float64
		}{{"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}, {"0.999", 0.999}} {
			if _, err := fmt.Fprintf(w, "%s{quantile=%q} %g\n",
				pn, q.label, ws.Quantile(q.p)/1e9); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s_count gauge\n%s_count %d\n", pn, pn, ws.Count); err != nil {
			return err
		}
	}
	return writeSamples(w, "gauge", "_rate_1m", win.rates)
}

// writeHistogram writes one labeled histogram instance: cumulative
// _bucket lines for every non-empty bucket boundary plus +Inf, then _sum
// and _count. Bounds are emitted in seconds.
func writeHistogram(w io.Writer, pn, labels string, s HistSnap) error {
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		le := strconv.FormatFloat(float64(histLower(i+1))/1e9, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", pn, joinLabels(labels), le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", pn, joinLabels(labels), s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n",
		pn, labels, float64(s.Sum)/1e9, pn, labels, s.Count); err != nil {
		return err
	}
	return nil
}

// joinLabels returns labels ready to precede another pair inside braces.
func joinLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

// serveJSON answers with v as an indented JSON document, or with a 500 when
// it does not encode.
func serveJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Handler returns the observability mux described above. Mount it on any
// server, or let Serve run it on a dedicated listener.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	// The JSON views serve [] for an empty ring, never null: scrapers index
	// into the array unconditionally.
	mux.HandleFunc("/debug/slow", func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, http.StatusOK, SlowRecords(Slow.Dump()))
	})
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			if err := WriteChromeTrace(w, Slow.Served()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		serveJSON(w, http.StatusOK, RequestRecords(Slow.Served()))
	})
	mux.HandleFunc("/debug/timeline", func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, http.StatusOK, TimelineSnapshots())
	})
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, r *http.Request) {
		v := Health()
		status := http.StatusOK
		if v.Status == HealthUnhealthy {
			status = http.StatusServiceUnavailable
		}
		serveJSON(w, status, v)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
