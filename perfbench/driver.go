package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// outcome is what the client saw of one request.
type outcome struct {
	req   request
	round int
	id    string
	// ok is false when the request was refused or settled other than
	// completed.
	ok      bool
	settled bool
	// status is the final status document (or the error body).
	status json.RawMessage
}

// driver runs rounds against one server, closed loop: a round's
// requests go out back to back, then the client polls until every one
// has settled, then the next round starts.
type driver struct {
	cl  *client
	srv *server
	w   *workload
	// Client-side round-trip times in ms, collected for the traced run.
	submitRTT, pollRTT []float64
}

func terminal(state string) bool {
	return state == "completed" || state == "failed" || state == "cancelled"
}

// runRound sends round r and waits for it to settle, returning its
// makespan. A transport error aborts the run; refusals and failed jobs
// are recorded on their outcomes.
func (d *driver) runRound(r int) (time.Duration, []*outcome, error) {
	reqs := d.w.round(r)
	outs := make([]*outcome, len(reqs))
	t0 := time.Now()
	for i, rq := range reqs {
		o := &outcome{req: rq, round: r}
		outs[i] = o
		if rq.kind == kindList {
			code, body, err := d.cl.get(d.srv.base + rq.path)
			if err != nil {
				return 0, nil, fmt.Errorf("listing: %w", err)
			}
			o.settled, o.status = true, body
			o.ok = code == http.StatusOK && validListing(body)
			continue
		}
		path := "/submit"
		if rq.kind == kindPipeline {
			path = "/pipelines"
		}
		ts := time.Now()
		code, body, err := d.cl.do(http.MethodPost, d.srv.base+path, rq.body)
		if err != nil {
			return 0, nil, fmt.Errorf("POST %s: %w", path, err)
		}
		d.submitRTT = append(d.submitRTT, ms(time.Since(ts)))
		o.status = body
		if code != http.StatusAccepted {
			o.settled = true
			continue
		}
		var st struct{ ID, State string }
		if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
			return 0, nil, fmt.Errorf("POST %s: unreadable 202 body %q", path, body)
		}
		o.id = st.ID
		if terminal(st.State) {
			o.settled, o.ok = true, st.State == "completed"
		}
	}
	// Wait for the requests in submission order: poll the first one not
	// yet settled until it settles, then the next. Sweeping every
	// unsettled request each time would put tens of polls per interval
	// on the server's CPU; this way a round costs about one poll per
	// interval plus one per request.
	for _, o := range outs {
		for !o.settled {
			path := "/jobs/"
			if o.req.kind == kindPipeline {
				path = "/pipelines/"
			}
			tp := time.Now()
			code, body, err := d.cl.get(d.srv.base + path + o.id)
			if err != nil {
				return 0, nil, fmt.Errorf("polling %s: %w", o.id, err)
			}
			d.pollRTT = append(d.pollRTT, ms(time.Since(tp)))
			if code != http.StatusOK {
				return 0, nil, fmt.Errorf("polling %s: status %d: %s", o.id, code, body)
			}
			var st struct{ State string }
			if err := json.Unmarshal(body, &st); err != nil {
				return 0, nil, fmt.Errorf("polling %s: %w", o.id, err)
			}
			if terminal(st.State) {
				o.settled, o.ok, o.status = true, st.State == "completed", body
			} else {
				time.Sleep(pollInterval)
			}
		}
	}
	return time.Since(t0), outs, nil
}

// validListing checks a GET /jobs body is a well-formed, non-empty list
// whose count matches its length.
func validListing(body []byte) bool {
	var l struct {
		Jobs  []json.RawMessage `json:"jobs"`
		Count int               `json:"count"`
	}
	return json.Unmarshal(body, &l) == nil && l.Count > 0 && l.Count == len(l.Jobs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
