package main

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	rfidclean "repro"
	"repro/internal/server"
	"repro/internal/stats"
)

// stream_sessions: an in-memory daemon under a store budget (every smooth
// and close stores a graph). Each client keeps streamSessions sessions open
// at once and feeds them interleaved, in chunks, until each sequence ends;
// an operation is any session request.

var (
	streamLengths     = []int{120, 180}
	streamPerLength   = 8 // per deployment and length: 2 x 2 x 8 = 32 sequences
	streamSessions    = 4 // concurrent sessions per client
	streamChunk       = 6 // readings per POST
	streamSmoothEvery = 60
	streamBeam        = 16
	streamStoreBudget = int64(48 << 20)
	streamSampled     = 6
)

// sessionPlan is one session: its sequence and how it is fed. Of every
// client's streamSessions sessions, slots 0 and 1 speak the binary codec,
// slot 3 is a beam session, and slots 0 and 2 carry an SSE subscriber.
type sessionPlan struct {
	seq       int
	binary    bool
	beam      int
	subscribe bool
}

// sessionPlanAt is client c's k-th session. Each client walks the
// population in seeded passes, every sequence once per pass, so every
// sequence is streamed about equally often whatever the run's length. Of
// every four consecutive sessions the first two speak the binary codec, the
// fourth is a beam session, and the first and third carry an SSE
// subscriber.
func sessionPlanAt(npool int, seed uint64, c, k int) sessionPlan {
	perm := shuffled(stats.NewRNG(mix(seed, "stream-plan", uint64(c), uint64(k/npool))), npool)
	p := sessionPlan{seq: perm[k%npool], binary: k%4 < 2, subscribe: k%4%2 == 0}
	if k%4 == 3 {
		p.beam = streamBeam
	}
	return p
}

// streamPlan is client c's sessions n*streamSessions onwards, one round of
// the traced replay.
func streamPlan(npool int, seed uint64, c, n int) []sessionPlan {
	out := make([]sessionPlan, streamSessions)
	for i := range out {
		out[i] = sessionPlanAt(npool, seed, c, n*streamSessions+i)
	}
	return out
}

// session is one live session's client-side state.
type session struct {
	plan   sessionPlan
	id     string
	fed    int
	smooth []server.CleanResponse // answers of every smooth, the closing one last
	final  []server.LocationProb  // filtered distribution after the last reading
	events chan sseCount          // nil without a subscriber
}

// sseCount is what an SSE drain saw.
type sseCount struct {
	smooths int
	closed  bool
	err     error
}

func runStreamSessions(e *env) (*runResult, error) {
	seqs, err := synthSequences(e.deps, "stream", streamLengths, streamPerLength)
	if err != nil {
		return nil, err
	}
	spec := clusterSpec{args: []string{"-max-store-bytes", strconv.FormatInt(streamStoreBudget, 10)}}
	c, setups, err := e.setup(spec)
	if err != nil {
		return nil, err
	}
	defer c.kill()

	cl := newClient()
	defer cl.CloseIdleConnections()
	led := newLedger()
	var (
		mu   sync.Mutex
		done []*session
	)
	r, err := e.timedWindow(c, led, setups, func(client int, deadline time.Time) error {
		sessions := streamClient(e, cl, c, led, seqs, client, deadline)
		mu.Lock()
		done = append(done, sessions...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The store runs under a budget, so what it holds when the window
	// closes is whichever graphs came last; the footprint per trajectory is
	// taken over every graph the window stored, as the daemon reported it.
	storeBytes, stored := 0, 0
	for _, s := range done {
		for _, resp := range s.smooth {
			storeBytes += resp.Bytes
			stored++
		}
	}
	var plans [][]sessionPlan
	for cli := 0; cli < clients; cli++ {
		plans = append(plans, streamPlan(len(seqs), e.seed, cli, 0))
	}
	r.storeKB = []float64{float64(storeBytes) / float64(max(1, stored)) / 1024}
	r.inputDigest = digest(sequencesDigest(seqs), e.seed, fmt.Sprint(plans))
	r.checked, r.checkErr = checkSessions(e, cl, c.base, seqs, done)
	if err := e.finish(r, cl, c, spec); err != nil {
		return nil, err
	}
	return r, nil
}

// streamClient runs one client. It keeps streamSessions sessions live and
// feeds them a chunk each in turn, smoothing every streamSmoothEvery
// readings; a session whose sequence has ended gets a final GET of its
// filtered distribution and a smoothing close, and its slot opens the
// client's next session. Sessions of different lengths drift apart, so the
// smooths and closes spread over the window instead of
// falling together at round ends. After the deadline no session opens and
// the live ones run to their close: every session is whole. Sessions whose
// requests failed are left out of the result; the ledger counts the
// failures.
func streamClient(e *env, cl *http.Client, c *cluster, led *ledger, seqs []*sequence, client int, deadline time.Time) []*session {
	var out []*session
	slots := make([]*session, streamSessions)
	for k := 0; ; {
		open, live := time.Now().Before(deadline), 0
		for i, s := range slots {
			if s == nil && open {
				s = openSession(e, cl, c, led, seqs, sessionPlanAt(len(seqs), e.seed, client, k))
				k++
				slots[i] = s
			}
			if s == nil {
				continue
			}
			live++
			done, err := feedSession(cl, c, led, seqs, s)
			switch {
			case err != nil:
				slots[i] = nil
			case done:
				slots[i] = nil
				if closeSession(cl, c, led, s) == nil {
					out = append(out, s)
				}
			}
		}
		if live == 0 && !open {
			return out
		}
	}
}

// openSession opens a session and, when planned, its SSE subscriber. It
// returns nil when the open failed.
func openSession(e *env, cl *http.Client, c *cluster, led *ledger, seqs []*sequence, p sessionPlan) *session {
	s := &session{plan: p}
	seq := seqs[p.seq]
	d := e.deps[seq.dep]
	req := server.StreamOpenRequest{
		Deployment: c.depIDs[seq.dep], Tag: seq.tag, Beam: p.beam,
		MaxSpeed: d.params.MaxSpeed, MinStay: d.params.MinStay, TTCap: d.params.TTCap,
	}
	var opened struct {
		ID string `json:"id"`
	}
	if led.timed("open", func() error {
		_, err := expect(cl, call{method: "POST", url: c.base + "/v1/stream", body: mustJSON(req)}, http.StatusCreated, &opened)
		return err
	}) != nil {
		return nil
	}
	s.id = opened.ID
	if p.subscribe {
		s.events = make(chan sseCount, 1)
		if led.timed("subscribe", func() error { return subscribe(cl, c.base+"/v1/stream/"+s.id+"/events", s.events) }) != nil {
			s.events = nil
		}
	}
	return s
}

// feedSession posts the session's next chunk, and a smooth when the chunk
// crossed a multiple of streamSmoothEvery before the sequence's end. done
// reports that the sequence has been fed whole.
func feedSession(cl *http.Client, c *cluster, led *ledger, seqs []*sequence, s *session) (done bool, err error) {
	readings := seqs[s.plan.seq].readings
	chunk := readings[s.fed:min(s.fed+streamChunk, len(readings))]
	if err := led.timed("readings", func() error { return postReadings(cl, c.base, s, chunk) }); err != nil {
		return false, err
	}
	crossed := (s.fed+len(chunk))/streamSmoothEvery > s.fed/streamSmoothEvery
	s.fed += len(chunk)
	if crossed && s.fed < len(readings) {
		var resp server.CleanResponse
		if err := led.timed("smooth", func() error {
			_, err := expect(cl, call{method: "POST", url: c.base + "/v1/stream/" + s.id + "/smooth"}, http.StatusCreated, &resp)
			return err
		}); err != nil {
			return false, err
		}
		s.smooth = append(s.smooth, resp)
	}
	return s.fed == len(readings), nil
}

// closeSession reads the session's final filtered distribution and closes
// it with a smooth.
func closeSession(cl *http.Client, c *cluster, led *ledger, s *session) error {
	if err := led.timed("status", func() error {
		var err error
		s.final, err = getStatus(cl, c.base, s)
		return err
	}); err != nil {
		return err
	}
	var closed server.StreamCloseResponse
	if err := led.timed("close", func() error {
		_, err := expect(cl, call{method: "DELETE", url: c.base + "/v1/stream/" + s.id}, http.StatusOK, &closed)
		if err == nil && closed.Trajectory == nil {
			err = errors.New("close answered no trajectory")
		}
		return err
	}); err != nil {
		return err
	}
	s.smooth = append(s.smooth, *closed.Trajectory)
	return nil
}

// subscribe opens the session's SSE stream (the operation ends when the
// response headers arrive) and drains it in the background until the
// terminal close event, reporting what it saw on events.
func subscribe(cl *http.Client, url string, events chan<- sseCount) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	go func() {
		defer resp.Body.Close()
		var n sseCount
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		for sc.Scan() {
			switch sc.Text() {
			case "event: smooth":
				n.smooths++
			case "event: close":
				n.closed = true
			}
			if n.closed {
				break
			}
		}
		n.err = sc.Err()
		events <- n
	}()
	return nil
}

func postReadings(cl *http.Client, base string, s *session, chunk rfidclean.ReadingSequence) error {
	url := base + "/v1/stream/" + s.id + "/readings"
	want := chunk[len(chunk)-1].Time
	if s.plan.binary {
		a, err := expect(cl, call{method: "POST", url: url, body: server.EncodeStreamReadings(chunk),
			contentType: server.ContentTypeBinary, accept: server.ContentTypeBinary}, http.StatusOK, nil)
		if err != nil {
			return err
		}
		st, err := server.DecodeStreamStatus(a.body)
		if err != nil {
			return err
		}
		if st.Time != want {
			return fmt.Errorf("session %s at time %d after feeding through %d", s.id, st.Time, want)
		}
		return nil
	}
	var st server.StreamStatus
	if _, err := expect(cl, call{method: "POST", url: url, body: mustJSON(server.StreamReadingsRequest{Readings: chunk})}, http.StatusOK, &st); err != nil {
		return err
	}
	if st.Time != want {
		return fmt.Errorf("session %s at time %d after feeding through %d", s.id, st.Time, want)
	}
	return nil
}

func getStatus(cl *http.Client, base string, s *session) ([]server.LocationProb, error) {
	url := base + "/v1/stream/" + s.id
	if s.plan.binary {
		a, err := expect(cl, call{method: "GET", url: url, accept: server.ContentTypeBinary}, http.StatusOK, nil)
		if err != nil {
			return nil, err
		}
		st, err := server.DecodeStreamStatus(a.body)
		return st.Current, err
	}
	var st server.StreamStatus
	_, err := expect(cl, call{method: "GET", url: url}, http.StatusOK, &st)
	return st.Current, err
}

// checkSessions checks every finished session: each smooth answered the
// graph size of an offline clean of the readings fed so far, each SSE
// subscriber saw every smooth and the close, and, on a seeded sample, the
// final filtered distribution equals the offline answer — the clean's last
// stay distribution for exact sessions, an offline beam Filter for beam
// sessions. The last session each client closed is read back from the
// store and compared with its offline clean.
func checkSessions(e *env, cl *http.Client, base string, seqs []*sequence, done []*session) (int, error) {
	checked := 0
	prefix := map[[2]int]*rfidclean.Cleaned{}
	offlinePrefix := func(si, n int) (*rfidclean.Cleaned, error) {
		key := [2]int{si, n}
		if c := prefix[key]; c != nil {
			return c, nil
		}
		seq := seqs[si]
		if n == len(seq.readings) {
			return seq.offline(e.deps)
		}
		d := e.deps[seq.dep]
		c, err := d.sys.Clean(seq.readings[:n], d.ic, &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd})
		prefix[key] = c
		return c, err
	}
	for _, s := range done {
		seq := seqs[s.plan.seq]
		for i, resp := range s.smooth {
			n := (i + 1) * streamSmoothEvery
			if i == len(s.smooth)-1 {
				n = len(seq.readings)
			}
			ref, err := offlinePrefix(s.plan.seq, n)
			if err != nil {
				return checked, err
			}
			st := ref.Stats()
			if st.Nodes != resp.Nodes || st.Edges != resp.Edges || st.Bytes != resp.Bytes {
				return checked, fmt.Errorf("session %s smooth %d over %d readings: %d nodes/%d edges, offline clean %d/%d",
					s.id, i+1, n, resp.Nodes, resp.Edges, st.Nodes, st.Edges)
			}
			checked++
		}
		if s.events != nil {
			got := <-s.events
			if got.err != nil || !got.closed || got.smooths != len(s.smooth) {
				return checked, fmt.Errorf("session %s SSE saw %d smooth events (want %d), close %v, error %v",
					s.id, got.smooths, len(s.smooth), got.closed, got.err)
			}
			checked++
		}
	}
	for _, i := range sampleIndices(e.seed, "stream-sample", len(done), streamSampled) {
		s := done[i]
		seq := seqs[s.plan.seq]
		d := e.deps[seq.dep]
		ck := checker{dep: d}
		got, err := ck.dist(s.final)
		if err != nil {
			return checked, err
		}
		if err := stayProps(got); err != nil {
			return checked, fmt.Errorf("session %s final distribution: %w", s.id, err)
		}
		var want []float64
		if s.plan.beam > 0 {
			f := rfidclean.NewFilter(d.ic, &rfidclean.FilterOptions{Beam: s.plan.beam})
			for _, rd := range seq.readings {
				cands, err := d.sys.Candidates(rd.Readers)
				if err != nil {
					return checked, err
				}
				if err := f.Observe(cands); err != nil {
					return checked, err
				}
			}
			want, err = f.Current(d.data.Plan.NumLocations())
		} else {
			ref, err2 := seq.offline(e.deps)
			if err2 != nil {
				return checked, err2
			}
			want, err = ref.StayDistribution(len(seq.readings) - 1)
		}
		if err != nil {
			return checked, err
		}
		if err := closeVec(got, want, "session "+s.id+" final filtered distribution"); err != nil {
			return checked, err
		}
		checked++
	}
	// The most recent graphs are still in the store.
	last := map[string]bool{}
	for i := len(done) - 1; i >= 0 && len(last) < 2; i-- {
		s := done[i]
		id := s.smooth[len(s.smooth)-1].ID
		if last[id] {
			continue
		}
		last[id] = true
		seq := seqs[s.plan.seq]
		ref, err := seq.offline(e.deps)
		if err != nil {
			return checked, err
		}
		for _, t := range []int{0, len(seq.readings) / 2, len(seq.readings) - 1} {
			q := readQuery{op: "stay", t: t}
			a, err := expect(cl, call{method: "GET", url: base + q.path(id)}, http.StatusOK, nil)
			if err != nil {
				return checked, err
			}
			if err := (checker{dep: e.deps[seq.dep]}).verify(q, a.body, ref); err != nil {
				return checked, fmt.Errorf("smoothed graph %s of session %s: %w", id, s.id, err)
			}
			checked++
		}
	}
	return checked, nil
}
