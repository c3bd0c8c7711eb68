package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"powerchop/internal/obs/runlog"
	"powerchop/internal/textplot"
)

// maxRunsPage caps one /api/runs response; clients page with
// offset/limit for more.
const maxRunsPage = 500

// runsResponse is the GET /api/runs document.
type runsResponse struct {
	// Runs is the matching history, newest first.
	Runs []runlog.Record `json:"runs"`
	// Count is len(Runs); Corrupt the journal lines skipped as
	// unparsable; Persistent whether the history survives restarts.
	Count      int  `json:"count"`
	Corrupt    int  `json:"corrupt,omitempty"`
	Persistent bool `json:"persistent"`
}

// runsFilter parses the shared query parameters of /api/runs and /runs.
func runsFilter(r *http.Request) runlog.Filter {
	q := r.URL.Query()
	f := runlog.Filter{
		Kind:    q.Get("kind"),
		Name:    q.Get("name"),
		Outcome: q.Get("outcome"),
		Limit:   maxRunsPage,
	}
	if n, err := strconv.Atoi(q.Get("limit")); err == nil && n > 0 && n < maxRunsPage {
		f.Limit = n
	}
	if n, err := strconv.Atoi(q.Get("offset")); err == nil && n > 0 {
		f.Offset = n
	}
	return f
}

// handleRunsAPI serves the persistent run history as JSON, filterable
// by ?kind=, ?name= and ?outcome=, paginated with ?limit= and ?offset=.
func (m *Monitor) handleRunsAPI(w http.ResponseWriter, r *http.Request) {
	store := m.RunLog()
	recs, corrupt, err := store.List(runsFilter(r))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if recs == nil {
		recs = []runlog.Record{}
	}
	resp := runsResponse{
		Runs:       recs,
		Count:      len(recs),
		Corrupt:    corrupt,
		Persistent: store.Persistent(),
	}
	b, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(append(b, '\n'))
}

// handleRunsBoard renders the run history as a plain-text table, the
// human-facing twin of /api/runs (same filters).
func (m *Monitor) handleRunsBoard(w http.ResponseWriter, r *http.Request) {
	store := m.RunLog()
	recs, corrupt, err := store.List(runsFilter(r))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if len(recs) == 0 {
		fmt.Fprintln(w, "(no runs recorded)")
		m.runsFooter(w)
		return
	}
	rows := make([][]string, 0, len(recs))
	for _, rec := range recs {
		rows = append(rows, rec.Row())
	}
	fmt.Fprint(w, textplot.Table(runlog.Columns, rows))
	if corrupt > 0 {
		fmt.Fprintf(w, "(%d corrupt journal lines skipped)\n", corrupt)
	}
	if !store.Persistent() {
		fmt.Fprintln(w, "(in-memory history: start serve with -cache to persist)")
	}
	m.runsFooter(w)
}

// runsFooter closes the /runs board with the route-latency quantile
// summary, the alerts badge and the board cross-links.
func (m *Monitor) runsFooter(w http.ResponseWriter) {
	if lines := routeQuantiles(m.reg.Snapshot()); len(lines) > 0 {
		fmt.Fprintln(w, "route latency quantiles:")
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	}
	fmt.Fprintf(w, "alerts firing: %d (/api/alerts)\n", m.alertsFiring())
	fmt.Fprintln(w, "boards: /dash /progress /runs")
}
