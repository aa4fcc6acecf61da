// TestGolden is the determinism contract of the whole campaign: every
// execution mode — fresh boots, forks of a cold image store, forks of a
// warm one, serial and parallel sweeps, on every architecture — must emit
// the committed golden document and the committed text rendering byte
// for byte. Under -short, which has no goldens, every row of an arch must
// match that arch's first row instead, so the modes are still compared
// with each other. TestJSONFullByteIdenticalAndGoldenSchema reads the
// same rows for the document's shape.
//
// Regenerate the root goldens (both architectures, both commands) with:
//
//	go test -run '^TestGolden$' ./internal/experiments ./cmd/satsim -update-golden

package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	_ "repro/internal/arch/sv39"
	"repro/internal/checkpoint"
	"repro/internal/imagestore"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite ../../testdata/experiments_quick*.golden.{json,txt} from the current output")

// diffParams sizes the -short rows: small enough to race every mode
// under -race, still crossing kernel configs, zygote forks, app
// launches, the scalability launch chains and the Binder IPC path.
var diffParams = Params{LaunchRuns: 2, AppRuns: 1, BinderIters: 100}

// storeRoot holds every image store of the test binary; TestMain
// removes it on exit.
var storeRoot string

// sessionStore backs the shared property-test session with an image
// store in a temporary directory, so that session doubles as the armv7
// store-cold row of TestGolden.
var sessionStore *countingStore

func TestMain(m *testing.M) {
	os.Exit(runTests(m))
}

func runTests(m *testing.M) int {
	var err error
	if storeRoot, err = os.MkdirTemp("", "experiments-store-"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(storeRoot)
	dir := filepath.Join(storeRoot, "session")
	if err := os.Mkdir(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if sessionStore, err = openCountingStore(dir, session); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	session.ImageStore = sessionStore
	return m.Run()
}

// countingStore wraps an image store and counts its traffic, so a row
// can prove whether its boots were simulated or loaded from disk.
type countingStore struct {
	checkpoint.ImageStore
	dir                 string
	saves, hits, misses atomic.Int64
}

func openCountingStore(dir string, s *Session) (*countingStore, error) {
	store, err := imagestore.Open(dir, s.Universe())
	if err != nil {
		return nil, err
	}
	return &countingStore{ImageStore: store, dir: dir}, nil
}

func (c *countingStore) Load(key string) (*checkpoint.Image, bool) {
	img, ok := c.ImageStore.Load(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return img, ok
}

func (c *countingStore) Save(key string, img *checkpoint.Image) {
	c.saves.Add(1)
	c.ImageStore.Save(key, img)
}

// goldenRow is one execution mode of the campaign.
type goldenRow struct {
	arch    string
	boot    string // "fresh", "store-cold" or "store-warm"
	workers int
}

func (r goldenRow) String() string {
	return fmt.Sprintf("%s/%s/workers=%d", r.arch, r.boot, r.workers)
}

// goldenRows lists the modes. A store-warm row reuses the directory its
// arch's store-cold row filled; the fresh rows are the oracle for the
// forks, and the serial one for the parallel sweeps too. Fresh rows hold
// no images, so they run side by side after the store rows: alone, the
// serial row would leave a CPU idle.
var goldenRows = []goldenRow{
	{"armv7", "store-cold", 4},
	{"armv7", "store-warm", 4},
	{"armv7", "fresh", 1},
	{"sv39", "store-cold", 4},
	{"sv39", "store-warm", 4},
	{"sv39", "fresh", 4},
}

// rowResult is what one row's single pass through the registry yields.
type rowResult struct {
	doc                 []byte  // the JSON document
	text                string  // the text rendering of every experiment
	saves, hits, misses int64   // store traffic; zero for fresh rows
	imageBytes          []int64 // a cold row's store: each file's size
	err                 error
}

// matrix runs every row once per test binary: TestGolden and the schema
// test below read the same results.
var matrix struct {
	once    sync.Once
	results []rowResult // indexed like goldenRows
}

// matrixParams sizes the rows: Quick, or diffParams under -short.
func matrixParams() Params {
	if testing.Short() {
		return diffParams
	}
	return Quick()
}

// goldenMatrix returns every row's result, running the rows on first use.
func goldenMatrix() []rowResult {
	matrix.once.Do(func() {
		params := matrixParams()
		res := make([]rowResult, len(goldenRows))
		stores := map[string]string{} // per arch, outlives the store rows
		var fresh sync.WaitGroup
		var freshRows []int
		for i, row := range goldenRows {
			if row.boot == "fresh" {
				freshRows = append(freshRows, i)
				continue
			}
			res[i] = runRow(row, params, stores)
		}
		for _, dir := range stores {
			if dir != sessionStore.dir {
				os.RemoveAll(dir)
			}
		}
		for _, i := range freshRows {
			fresh.Add(1)
			go func() {
				defer fresh.Done()
				res[i] = runRow(goldenRows[i], params, nil)
			}()
		}
		fresh.Wait()
		matrix.results = res
	})
	return matrix.results
}

// runRow makes row's one pass through the registry.
func runRow(row goldenRow, params Params, stores map[string]string) rowResult {
	s, store, err := goldenSession(row, params, stores)
	if err != nil {
		return rowResult{err: err}
	}
	var text strings.Builder
	doc, err := runJSON(s, nil, func(e Experiment, t *Table) {
		fmt.Fprintf(&text, "%s\n%s\n", e.Name, t)
	})
	r := rowResult{doc: doc, text: text.String(), err: err}
	if store != nil {
		r.saves, r.hits, r.misses = store.saves.Load(), store.hits.Load(), store.misses.Load()
	}
	if row.boot == "store-cold" && r.err == nil {
		r.imageBytes, r.err = fileSizes(store.dir)
	}
	return r
}

// fileSizes lists the sizes of the files in dir.
func fileSizes(dir string) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var sizes []int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		sizes = append(sizes, info.Size())
	}
	return sizes, nil
}

// rowOf looks up the result of the row with the given arch, boot source
// and worker count.
func rowOf(t *testing.T, arch, boot string, workers int) rowResult {
	t.Helper()
	res := goldenMatrix()
	for i, row := range goldenRows {
		if row == (goldenRow{arch, boot, workers}) {
			if res[i].err != nil {
				t.Fatalf("%s: %v", row, res[i].err)
			}
			return res[i]
		}
	}
	t.Fatalf("no golden row %s/%s/workers=%d", arch, boot, workers)
	return rowResult{}
}

func TestGolden(t *testing.T) {
	if testing.Short() && *updateGolden {
		t.Fatal("-update-golden needs the Quick rows; drop -short")
	}
	res := goldenMatrix()
	refs := references{}
	for i, row := range goldenRows {
		t.Run(row.String(), func(t *testing.T) {
			r := res[i]
			if r.err != nil {
				t.Fatal(r.err)
			}
			checkStoreTraffic(t, row, r)

			golden := filepath.Join("..", "..", "testdata", "experiments_quick"+archSuffix(row.arch)+".golden")
			wantJSON, err := refs.get(golden+".json", row, r.doc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(r.doc, wantJSON.data) {
				t.Errorf("JSON document differs from %s:\n%s", wantJSON.name, firstDiff(r.doc, wantJSON.data))
			}
			wantText, err := refs.get(golden+".txt", row, []byte(r.text))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal([]byte(r.text), wantText.data) {
				t.Errorf("text rendering differs from %s:\n%s", wantText.name, firstDiff([]byte(r.text), wantText.data))
			}
		})
	}
}

// TestJSONFullByteIdenticalAndGoldenSchema checks the shape of the
// full-registry document: every registry experiment in order, each with
// metrics, and the metric keys the committed golden pins (skipped under
// -short, which has no golden). That every mode emits the same bytes is
// TestGolden's check.
func TestJSONFullByteIdenticalAndGoldenSchema(t *testing.T) {
	got := schemaOf(t, rowOf(t, "armv7", "fresh", 1).doc)
	if len(got) != len(Registry()) {
		t.Fatalf("got %d experiments, want the %d of the registry", len(got), len(Registry()))
	}
	for i, e := range Registry() {
		if got[i].name != e.Name || len(got[i].keys) == 0 {
			t.Errorf("experiment %d: %q with %d metrics, want %q with some", i, got[i].name, len(got[i].keys), e.Name)
		}
	}
	if testing.Short() || *updateGolden {
		return
	}
	golden := filepath.Join("..", "..", "testdata", "experiments_quick.golden.json")
	doc, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if want := schemaOf(t, doc); !reflect.DeepEqual(got, want) {
		t.Errorf("schema differs from %s; if the change is intentional, bump the schema "+
			"or regenerate the goldens with -update-golden.\ngot:  %v\nwant: %v", golden, got, want)
	}
}

// experimentSchema is one experiment's shape: its name and sorted metric keys.
type experimentSchema struct {
	name string
	keys []string
}

// schemaOf reduces a report document to its shape, checking the schema id.
func schemaOf(t *testing.T, doc []byte) []experimentSchema {
	t.Helper()
	var rep JSONReport
	if err := json.Unmarshal(doc, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Schema != SchemaID {
		t.Fatalf("schema = %q, want %q", rep.Schema, SchemaID)
	}
	var out []experimentSchema
	for _, e := range rep.Experiments {
		keys := make([]string, 0, len(e.Metrics))
		for k := range e.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out = append(out, experimentSchema{e.Name, keys})
	}
	return out
}

// TestJSONSubsetDeterministic is the cheap selection check: a four-
// experiment subset must produce byte-identical documents serially and
// with 4 workers, carrying the schema id and exactly the selected
// experiments, each with metrics.
func TestJSONSubsetDeterministic(t *testing.T) {
	sel := map[string]bool{"scalability": true, "cache-pollution": true, "smp": true, "chrome-family": true}
	a, err := RunJSON(&Session{Params: Quick(), Parallel: 1}, sel)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunJSON(&Session{Params: Quick(), Parallel: 4}, sel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("serial and parallel JSON diverge:\n%s", firstDiff(a, b))
	}
	got := schemaOf(t, a)
	if len(got) != len(sel) {
		t.Fatalf("got %d experiments, want %d", len(got), len(sel))
	}
	for _, e := range got {
		if !sel[e.name] || len(e.keys) == 0 {
			t.Errorf("%s: selected %v, %d metrics", e.name, sel[e.name], len(e.keys))
		}
	}
}

// references holds the reference renderings, keyed by golden
// file: the committed file — or, under -short, the arch's first row's
// own output, and under -update-golden that output written as the new
// golden.
type references map[string]reference

// reference is one reference rendering and the name of where it came
// from, for the messages of a row that differs from it.
type reference struct {
	name string
	data []byte
}

// get returns golden's reference; row's output got becomes it when row
// is the first to ask.
func (r references) get(golden string, row goldenRow, got []byte) (reference, error) {
	if want, ok := r[golden]; ok {
		return want, nil
	}
	want := reference{name: golden, data: got}
	switch {
	case *updateGolden:
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			return reference{}, err
		}
	case testing.Short():
		want.name = fmt.Sprintf("the output of row %s", row)
	default:
		var err error
		if want.data, err = os.ReadFile(golden); err != nil {
			return reference{}, err
		}
	}
	r[golden] = want
	return want, nil
}

// archSuffix names an architecture's golden files.
func archSuffix(arch string) string {
	if arch == "armv7" {
		return ""
	}
	return "_" + arch
}

// goldenSession builds the session for row, with its counting store
// (nil for fresh rows). Outside -short the armv7 store-cold row is the
// shared property-test session, whose sweeps are already cached and
// whose store the armv7 store-warm row then reads.
func goldenSession(row goldenRow, params Params, stores map[string]string) (*Session, *countingStore, error) {
	if row.arch == "armv7" && row.boot == "store-cold" && !testing.Short() {
		if session.Parallel != row.workers {
			return nil, nil, fmt.Errorf("shared session runs %d workers, row wants %d", session.Parallel, row.workers)
		}
		stores[row.arch] = sessionStore.dir
		return session, sessionStore, nil
	}
	s := &Session{Params: params, Parallel: row.workers, Arch: row.arch}
	if row.boot == "fresh" {
		s.freshBoot = true
		return s, nil, nil
	}
	if stores[row.arch] == "" {
		dir, err := os.MkdirTemp(storeRoot, row.arch+"-")
		if err != nil {
			return nil, nil, err
		}
		stores[row.arch] = dir
	}
	store, err := openCountingStore(stores[row.arch], s)
	if err != nil {
		return nil, nil, err
	}
	s.ImageStore = store
	return s, store, nil
}

// storeImages pins how many images a cold row saves, per arch: one per
// distinct boot prefix of the registry. Both matrixParams save the same
// set, since the params size what runs after a boot, not the boots. A
// change that persists more than boot prefixes (per-scenario state, say)
// moves these numbers and must justify the disk it costs.
var storeImages = map[string]int64{"armv7": 12, "sv39": 12}

// maxImageBytes bounds one stored image. A booted machine's image is
// 0.7-1.0 MiB, as it holds the frame table only below the bump pointer;
// one that carried the whole 2^18-frame table would be 4.7-5.0 MiB.
const maxImageBytes = 2 << 20

// checkStoreTraffic proves the boot source of a store row: a cold row
// simulates and saves exactly its boot prefixes, each image under
// maxImageBytes, and the warm row after it loads every one of them and
// saves none.
func checkStoreTraffic(t *testing.T, row goldenRow, r rowResult) {
	t.Helper()
	want := storeImages[row.arch]
	switch row.boot {
	case "store-cold":
		if r.saves != want || r.hits != 0 {
			t.Errorf("cold store: %d saves, %d load hits; want %d saves and no hits", r.saves, r.hits, want)
		}
		var total, largest int64
		for _, n := range r.imageBytes {
			total += n
			largest = max(largest, n)
		}
		if largest >= maxImageBytes {
			t.Errorf("cold store: largest image %d bytes (store %d bytes in %d files); want every image under %d",
				largest, total, len(r.imageBytes), maxImageBytes)
		}
	case "store-warm":
		if r.saves != 0 || r.misses != 0 || r.hits != want {
			t.Errorf("warm store: %d saves, %d load misses, %d hits; want all %d images loaded, none saved",
				r.saves, r.misses, r.hits, want)
		}
	}
}

// firstDiff locates the first differing byte of got and want and shows
// both around it.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-200, 0)
	return fmt.Sprintf("first difference at byte %d:\ngot:  ...%q\nwant: ...%q",
		i, got[lo:min(i+200, len(got))], want[lo:min(i+200, len(want))])
}
