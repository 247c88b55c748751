// Command domquery evaluates one dominance query from JSON and reports the
// verdict of every criterion, a structured way to explore the operator.
//
// Input (stdin or -in FILE):
//
//	{
//	  "sa": {"center": [0, 0], "radius": 1},
//	  "sb": {"center": [9, 0], "radius": 1},
//	  "sq": {"center": [-4, 0], "radius": 2}
//	}
//
// Output: one JSON object with each criterion's verdict, the optimal
// verdict, and — when dominance fails — a witness point inside Sq whose
// distance margin certifies the failure.
//
// The shared observability flags are available too: `domquery -serve :6060`
// answers the query and then keeps serving /metrics, /debug/slow and
// /debug/pprof until interrupted, so the criterion counters the query moved
// can be inspected. With `-trace out.json` the query's criterion-by-
// criterion evaluation is recorded as an execution trace — one DomCheck
// event per criterion plus a shadow-disagreement event wherever a cheap
// criterion contradicts Hyperbola — and exported as Chrome trace_event
// JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hyperdom"
	"hyperdom/internal/obs"
)

type sphereJSON struct {
	Center []float64 `json:"center"`
	Radius float64   `json:"radius"`
}

type queryJSON struct {
	Sa sphereJSON `json:"sa"`
	Sb sphereJSON `json:"sb"`
	Sq sphereJSON `json:"sq"`
}

type resultJSON struct {
	Dominates bool            `json:"dominates"`
	Verdicts  map[string]bool `json:"verdicts"`
	Witness   *witnessJSON    `json:"witness,omitempty"`
}

type witnessJSON struct {
	Q      []float64 `json:"q"`
	Margin float64   `json:"margin"`
}

func main() {
	in := flag.String("in", "", "input file (default stdin)")
	pf := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stop, err := pf.Start()
	if err != nil {
		fatal("%v", err)
	}

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal("opening %s: %v", *in, err)
		}
		defer f.Close()
		r = f
	}
	var tb *obs.TraceBuf
	if obs.TraceEnabled() {
		tb = &obs.TraceBuf{}
	}
	if err := run(r, os.Stdout, tb); err != nil {
		fatal("%v", err)
	}
	stop()
}

// run decodes one query from r, evaluates it and writes the JSON result to
// w, recording the evaluation into tb (may be nil) for -trace. Extracted
// from main so the full pipeline is unit-testable.
func run(r io.Reader, w io.Writer, tb *obs.TraceBuf) error {
	var q queryJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		return fmt.Errorf("decoding query: %w", err)
	}
	for _, s := range []sphereJSON{q.Sa, q.Sb, q.Sq} {
		if len(s.Center) == 0 {
			return fmt.Errorf("every sphere needs a non-empty center")
		}
		if len(s.Center) != len(q.Sa.Center) {
			return fmt.Errorf("spheres must share one dimensionality")
		}
		if s.Radius < 0 {
			return fmt.Errorf("radius must be non-negative")
		}
	}

	sa := hyperdom.NewSphere(q.Sa.Center, q.Sa.Radius)
	sb := hyperdom.NewSphere(q.Sb.Center, q.Sb.Radius)
	sq := hyperdom.NewSphere(q.Sq.Center, q.Sq.Radius)

	start := time.Now()
	if tb != nil {
		tb.Begin(start)
	}
	res := resultJSON{Verdicts: map[string]bool{}}
	for _, c := range hyperdom.Criteria() {
		v := c.Dominates(sa, sb, sq)
		res.Verdicts[c.Name()] = v
		if tb != nil {
			tb.DomCheck(0, c.Name(), -1, v, 0)
		}
	}
	res.Dominates = res.Verdicts["Hyperbola"]
	if tb != nil {
		for name, v := range res.Verdicts {
			if name != "Hyperbola" && v != res.Dominates {
				tb.Shadow(name, v, res.Dominates)
			}
		}
		lat := time.Since(start).Nanoseconds()
		obs.Slow.Record(&obs.Op{
			WhenUnixNs: start.UnixNano(),
			LatencyNs:  lat,
			Substrate:  "domquery",
			Algo:       "criteria",
			DomChecks:  uint64(len(res.Verdicts)),
			Trace:      tb.Finish(lat),
		})
	}
	if !res.Dominates {
		if wit := hyperdom.FindWitness(sa, sb, sq, 2048); wit != nil {
			res.Witness = &witnessJSON{Q: wit.Q, Margin: wit.Margin}
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "domquery: "+format+"\n", args...)
	os.Exit(2)
}
