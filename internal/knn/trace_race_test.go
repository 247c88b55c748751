package knn

import (
	"io"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/obs"
)

// TestTraceScrapeConcurrent is the flight-recorder/trace linkage race gate
// (ISSUE 4): searches recording sampled traces into the ring while scrapers
// hammer /debug/slow and /debug/trace must neither race (the -race CI run
// covers this file) nor tear spans — every trace served is a complete,
// internally consistent tree.
func TestTraceScrapeConcurrent(t *testing.T) {
	defer obs.SetEnabled(true)
	defer obs.SetTraceEvery(0)
	obs.SetEnabled(true)
	obs.ResetForTest()
	obs.SetTraceEvery(2)

	rng := rand.New(rand.NewSource(321))
	idx := index(randItems(rng, 4, 700, 2), 4)

	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()

	const (
		searchers = 4
		rounds    = 200
	)
	var searchWG sync.WaitGroup
	for w := 0; w < searchers; w++ {
		searchWG.Add(1)
		go func(seed int64) {
			defer searchWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				algo := DF
				if i%2 == 0 {
					algo = HS
				}
				Search(idx, randQuery(rng, 4, 1), 5+i%7, dominance.Hyperbola{}, algo)
			}
		}(int64(w + 1))
	}

	stop := make(chan struct{})
	var readWG sync.WaitGroup

	// Two scrapers, one per endpoint, polling until the searchers finish.
	scrape := func(path string) {
		defer readWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := srv.Client().Get(srv.URL + path)
			if err != nil {
				t.Errorf("GET %s: %v", path, err)
				return
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Errorf("reading %s: %v", path, err)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("%s status = %d", path, resp.StatusCode)
				return
			}
		}
	}
	readWG.Add(2)
	go scrape("/debug/slow")
	go scrape("/debug/trace")

	// A direct reader too: Traces() without the HTTP layer, checking span
	// trees for tearing while writers are active.
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, op := range obs.Slow.Traced() {
				qt := &op.Trace
				if len(qt.Spans) == 0 || qt.Spans[0].Kind != obs.SpanSearch {
					t.Errorf("trace %d has no root span", qt.ID)
					return
				}
				for i, sp := range qt.Spans {
					if i > 0 && (sp.Parent < 0 || int(sp.Parent) >= i) {
						t.Errorf("trace %d span %d torn: parent %d", qt.ID, i, sp.Parent)
						return
					}
				}
			}
		}
	}()

	searchWG.Wait()
	close(stop)
	readWG.Wait()

	if got := obs.Lookup("knn.searches").Load(); got != searchers*rounds {
		t.Errorf("knn.searches = %d, want %d", got, searchers*rounds)
	}
	if len(obs.Slow.Traced()) == 0 {
		t.Error("no traces retained after concurrent run")
	}
}
