package probe

import (
	"encoding/hex"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"pingmesh/internal/metrics"
)

func randAddr(rng *rand.Rand) netip.Addr {
	if rng.Intn(2) == 0 {
		var b [4]byte
		rng.Read(b[:])
		return netip.AddrFrom4(b)
	}
	var b [16]byte
	rng.Read(b[:])
	return netip.AddrFrom16(b)
}

func randomSketch(rng *rand.Rand) PeerSketch {
	h := metrics.NewLatencyHistogram()
	n := rng.Intn(200) + 1
	for i := 0; i < n; i++ {
		h.Observe(time.Duration(rng.Int63n(int64(5 * time.Second))))
	}
	var ph *metrics.Histogram
	if rng.Intn(2) == 0 {
		ph = metrics.NewLatencyHistogram()
		for i := 0; i < n; i++ {
			ph.Observe(time.Duration(rng.Int63n(int64(time.Second))))
		}
	}
	minStart := time.Unix(rng.Int63n(1<<33), rng.Int63n(1e9)).UTC()
	return PeerSketch{
		Src:        randAddr(rng),
		Dst:        randAddr(rng),
		DstPort:    uint16(rng.Intn(1 << 16)),
		Class:      Class(rng.Intn(3)),
		Proto:      Proto(rng.Intn(2)),
		QoS:        QoS(rng.Intn(2)),
		PayloadLen: rng.Intn(1 << 16),
		MinStart:   minStart,
		MaxStart:   minStart.Add(time.Duration(rng.Int63n(int64(10 * time.Minute)))),
		RTT:        h,
		Payload:    ph,
	}
}

// scanAllEntries drives ScanEntry over data, returning parsed records,
// sketch copies, and the number of row errors.
func scanAllEntries(data []byte) (recs []Record, sks []Sketch, errs int) {
	var sc Scanner
	sc.Reset(data)
	for {
		switch sc.ScanEntry() {
		case EntryEOF:
			return recs, sks, errs
		case EntryRecord:
			if sc.RowErr() != nil {
				errs++
				continue
			}
			recs = append(recs, *sc.Record())
		case EntrySketch:
			sk := *sc.Sketch()
			sk.RTT, sk.Payload = sk.RTT.Clone(), sk.Payload.Clone()
			sks = append(sks, sk)
		}
	}
}

// compareSketch checks a decoded sketch against the PeerSketch it encoded.
func compareSketch(t *testing.T, got *Sketch, want *PeerSketch) {
	t.Helper()
	if got.Src != want.Src || got.Dst != want.Dst || got.DstPort != want.DstPort ||
		got.Class != want.Class || got.Proto != want.Proto || got.QoS != want.QoS ||
		got.PayloadLen != want.PayloadLen {
		t.Fatalf("sketch identity diverged:\ngot  %+v\nwant %+v", got, want)
	}
	if !got.MinStart.Equal(want.MinStart) || !got.MaxStart.Equal(want.MaxStart) {
		t.Fatalf("sketch time range diverged: got [%v,%v] want [%v,%v]",
			got.MinStart, got.MaxStart, want.MinStart, want.MaxStart)
	}
	compareHist(t, "rtt", &got.RTT, want.RTT)
	compareHist(t, "payload", &got.Payload, want.Payload)
}

func compareHist(t *testing.T, label string, got *metrics.Runs, want *metrics.Histogram) {
	t.Helper()
	if want == nil || want.Count() == 0 {
		if got.Count != 0 {
			t.Fatalf("%s: decoded %d observations from an empty histogram", label, got.Count)
		}
		return
	}
	if got.Count != want.Count() || got.Sum != int64(want.Sum()) ||
		got.Min != int64(want.Min()) || got.Max != int64(want.Max()) {
		t.Fatalf("%s: tallies diverged: got n=%d sum=%d min=%d max=%d, want n=%d sum=%v min=%v max=%v",
			label, got.Count, got.Sum, got.Min, got.Max,
			want.Count(), int64(want.Sum()), int64(want.Min()), int64(want.Max()))
	}
	gi, wi := got.Buckets(), want.Buckets()
	for {
		gb, gok := gi.Next()
		wb, wok := wi.Next()
		if gok != wok {
			t.Fatalf("%s: bucket streams ended at different lengths", label)
		}
		if !gok {
			return
		}
		if gb != wb {
			t.Fatalf("%s: bucket diverged: got %+v want %+v", label, gb, wb)
		}
	}
}

func TestBinaryBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := make([]Record, 50)
	for i := range recs {
		recs[i] = randomRecord(rng)
	}
	sks := make([]PeerSketch, 20)
	for i := range sks {
		sks[i] = randomSketch(rng)
	}
	data := AppendBinaryBatch(nil, recs, sks)

	gotRecs, gotSks, errs := scanAllEntries(data)
	if errs != 0 {
		t.Fatalf("round trip produced %d row errors", errs)
	}
	if len(gotRecs) != len(recs) || len(gotSks) != len(sks) {
		t.Fatalf("decoded %d records + %d sketches, want %d + %d",
			len(gotRecs), len(gotSks), len(recs), len(sks))
	}
	for i := range recs {
		if gotRecs[i] != recs[i] {
			t.Fatalf("record %d diverged:\ngot  %+v\nwant %+v", i, gotRecs[i], recs[i])
		}
	}
	for i := range sks {
		compareSketch(t, &gotSks[i], &sks[i])
	}
}

// An extent interleaving CSV documents and binary batches must yield all
// entries of both, in order, through one Scanner pass — and Scan (the
// records-only view) must see the records of both formats.
// TestKeptSketchOutlivesNextScan: the scanner unpacks every sketch's runs
// into the same scratch, so a sketch kept past the next ScanEntry keeps
// cloned runs — and those must still read as the first sketch after the
// second, with different runs, is scanned.
func TestKeptSketchOutlivesNextScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sks := []PeerSketch{randomSketch(rng), randomSketch(rng)}
	sks[0].Payload, sks[1].Payload = sks[1].RTT, sks[0].RTT
	var sc Scanner
	sc.Reset(AppendBinaryBatch(nil, nil, sks))
	if k := sc.ScanEntry(); k != EntrySketch {
		t.Fatalf("first entry: kind %d (rowErr %v)", k, sc.RowErr())
	}
	kept := *sc.Sketch()
	kept.RTT, kept.Payload = kept.RTT.Clone(), kept.Payload.Clone()
	if k := sc.ScanEntry(); k != EntrySketch {
		t.Fatalf("second entry: kind %d (rowErr %v)", k, sc.RowErr())
	}
	compareSketch(t, sc.Sketch(), &sks[1])
	compareSketch(t, &kept, &sks[0])
}

func TestScannerMixedFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	csv1 := make([]Record, 10)
	for i := range csv1 {
		csv1[i] = randomRecord(rng)
	}
	binRecs := make([]Record, 5)
	for i := range binRecs {
		binRecs[i] = randomRecord(rng)
	}
	sks := []PeerSketch{randomSketch(rng), randomSketch(rng)}
	csv2 := []Record{randomRecord(rng)}

	var data []byte
	data = AppendBatch(data, csv1)
	data = AppendBinaryBatch(data, binRecs, sks)
	data = AppendBinaryBatch(data, nil, sks[:1]) // records-free batch
	data = AppendBatch(data, csv2)

	wantRecs := append(append(append([]Record{}, csv1...), binRecs...), csv2...)
	gotRecs, gotSks, errs := scanAllEntries(data)
	if errs != 0 {
		t.Fatalf("mixed extent produced %d row errors", errs)
	}
	if len(gotSks) != 3 {
		t.Fatalf("decoded %d sketches, want 3", len(gotSks))
	}
	if len(gotRecs) != len(wantRecs) {
		t.Fatalf("decoded %d records, want %d", len(gotRecs), len(wantRecs))
	}
	for i := range wantRecs {
		if gotRecs[i] != wantRecs[i] {
			t.Fatalf("record %d diverged:\ngot  %+v\nwant %+v", i, gotRecs[i], wantRecs[i])
		}
	}

	// The records-only Scan view sees the same records.
	var sc Scanner
	sc.Reset(data)
	var viaScan []Record
	for sc.Scan() {
		if sc.RowErr() != nil {
			t.Fatalf("line %d: %v", sc.Line(), sc.RowErr())
		}
		viaScan = append(viaScan, *sc.Record())
	}
	if len(viaScan) != len(wantRecs) {
		t.Fatalf("Scan saw %d records, want %d", len(viaScan), len(wantRecs))
	}
}

// Corruption inside one batch payload must cost exactly that batch (one
// row error) and resync at the next batch boundary.
func TestBinaryBatchCorruptionResync(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	recs := []Record{randomRecord(rng), randomRecord(rng)}
	good := AppendBinaryBatch(nil, recs, nil)

	// A batch with a valid length prefix but garbage payload: the length
	// is trusted, so exactly this batch is lost and scanning resumes at
	// the next one. (There is deliberately no checksum — a bit flip that
	// still decodes is indistinguishable from data; framing corruption is
	// what the resync path must contain.)
	bad := append([]byte(binaryMagic), 20)
	for i := 0; i < 20; i++ {
		bad = append(bad, 0xff)
	}

	data := append(append([]byte{}, bad...), good...)
	gotRecs, _, errs := scanAllEntries(data)
	if errs != 1 {
		t.Fatalf("got %d row errors, want exactly 1 for the corrupt batch", errs)
	}
	if len(gotRecs) != len(recs) {
		t.Fatalf("resync lost records from the good batch: got %d, want %d", len(gotRecs), len(recs))
	}
	for i := range recs {
		if gotRecs[i] != recs[i] {
			t.Fatalf("good-batch record %d diverged after resync", i)
		}
	}

	// A batch whose header (length prefix) is corrupt has no resync point:
	// the rest of the input is one row error.
	headerBad := append([]byte(binaryMagic), 0xff) // truncated uvarint
	headerBad = append(headerBad, good...)
	gotRecs, _, errs = scanAllEntries(headerBad)
	if errs != 1 || len(gotRecs) != 0 {
		t.Fatalf("bad header: got %d records %d errors, want 0 records 1 error", len(gotRecs), errs)
	}
}

// sketchBatchWithRuns hand-builds a batch of one sketch whose RTT histogram
// claims two runs and carries the given run bytes.
func sketchBatchWithRuns(runs ...byte) []byte {
	p := []byte{0, 1} // no records, one sketch
	p = appendBinAddr(p, netip.MustParseAddr("10.0.0.1"))
	p = appendBinAddr(p, netip.MustParseAddr("10.0.0.2"))
	p = append(p, 80, 0, 0, 0, 0, 0, 0) // dport, class/proto/qos, payloadLen, minStart, span
	p = append(p, 2, 4, 2, 2)           // nRuns, sum, min, max
	p = append(p, runs...)
	p = append(p, 0) // empty payload histogram
	return append(append([]byte(binaryMagic), byte(len(p))), p...)
}

// A run list the encoder cannot produce but a corrupt extent can: the gap
// 2^64−1, added to the bucket index as an int, wraps to −1, so a decoder
// that only range-checks the result yields buckets 5 then 4 and breaks the
// ascending order every fold relies on; a count of 2^64−1 wraps the running
// total to 0. Both must cost the batch, as one row error.
func TestBinarySketchRejectsWrappingRuns(t *testing.T) {
	max := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	if _, sks, errs := scanAllEntries(sketchBatchWithRuns(5, 1, 1, 1)); len(sks) != 1 || errs != 0 {
		t.Fatalf("well-formed runs: %d sketches, %d errors", len(sks), errs)
	}
	for name, runs := range map[string][]byte{
		"gap wrapping the index":   append(append([]byte{5, 1}, max...), 1),
		"count wrapping the total": append([]byte{5, 1, 1}, max...),
	} {
		_, sks, errs := scanAllEntries(sketchBatchWithRuns(runs...))
		if len(sks) != 0 || errs != 1 {
			t.Fatalf("%s: %d sketches, %d errors, want the batch rejected", name, len(sks), errs)
		}
	}
}

// A CSV line that merely starts with the magic is a binary batch attempt
// now (documented acceptance change): still exactly one row error, and
// surrounding batches still decode when the length prefix happens to be
// invalid early.
func TestMagicPrefixedCSVLineIsRowError(t *testing.T) {
	data := []byte("PMB1,this,used,to,be,a,corrupt,csv,row\n")
	recs, sks, errs := scanAllEntries(data)
	if len(recs) != 0 || len(sks) != 0 || errs != 1 {
		t.Fatalf("got %d recs %d sketches %d errors, want 0/0/1", len(recs), len(sks), errs)
	}
}

// TestSketchEncodeZeroAlloc: the agent's flush path encodes whole batches
// (records + sketches) into a reused buffer; steady state must be
// allocation-free. Tier-3 guard.
func TestSketchEncodeZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	recs := make([]Record, 32)
	for i := range recs {
		recs[i] = randomRecord(rng)
	}
	sks := make([]PeerSketch, 16)
	for i := range sks {
		sks[i] = randomSketch(rng)
	}
	buf := AppendBinaryBatch(nil, recs, sks) // size the buffer once
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendBinaryBatch(buf[:0], recs, sks)
	})
	if allocs != 0 {
		t.Fatalf("AppendBinaryBatch allocated %.1f/op, want 0", allocs)
	}
}

// TestBinaryScanZeroAlloc: the analysis-side decode of a binary batch must
// be allocation-free per entry once the error intern table is warm.
// Tier-3 guard.
func TestBinaryScanZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recs := make([]Record, 64)
	for i := range recs {
		recs[i] = randomRecord(rng)
	}
	sks := make([]PeerSketch, 16)
	for i := range sks {
		sks[i] = randomSketch(rng)
	}
	data := AppendBinaryBatch(nil, recs, sks)

	agg := metrics.NewLatencyHistogram()
	var sc Scanner
	sc.Reset(data) // warm the intern table
	for sc.Scan() {
	}
	allocs := testing.AllocsPerRun(100, func() {
		sc.Reset(data)
		for {
			k := sc.ScanEntry()
			if k == EntryEOF {
				break
			}
			if k == EntrySketch {
				sc.Sketch().RTT.AddTo(agg)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("binary scan allocated %.1f/op, want 0", allocs)
	}
}

// FuzzBinaryCodecRoundTrip fuzzes the binary path from both ends: (1) the
// Scanner must survive arbitrary bytes — no panics, guaranteed
// termination, bounded entries; (2) a batch generated from the fuzz input
// as a seed must round-trip exactly.
func FuzzBinaryCodecRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(12))
	f.Add(AppendBinaryBatch(nil, []Record{randomRecord(rng)}, []PeerSketch{randomSketch(rng)}))
	f.Add(AppendBinaryBatch(nil, nil, nil))
	f.Add([]byte(binaryMagic))
	f.Add([]byte(binaryMagic + "\x02\x00\x00garbage"))
	f.Add([]byte("csv,line\n" + binaryMagic + "\x05\x01"))
	f.Add(sketchBatchWithRuns(5, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1)) // gap 2^64−1
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc Scanner
		sc.Reset(data)
		for entries := 0; ; entries++ {
			if k := sc.ScanEntry(); k == EntryEOF {
				break
			}
			if entries > 2*len(data)+16 {
				t.Fatalf("scanner yielded more entries than the input can hold")
			}
		}

		var seed int64 = int64(len(data))
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		g := rand.New(rand.NewSource(seed))
		recs := make([]Record, g.Intn(8))
		for i := range recs {
			recs[i] = randomRecord(g)
		}
		sks := make([]PeerSketch, g.Intn(4))
		for i := range sks {
			sks[i] = randomSketch(g)
		}
		enc := AppendBinaryBatch(nil, recs, sks)
		gotRecs, gotSks, errs := scanAllEntries(enc)
		if errs != 0 {
			t.Fatalf("round trip produced %d row errors", errs)
		}
		if len(gotRecs) != len(recs) || len(gotSks) != len(sks) {
			t.Fatalf("decoded %d+%d entries, want %d+%d", len(gotRecs), len(gotSks), len(recs), len(sks))
		}
		for i := range recs {
			if gotRecs[i] != recs[i] {
				t.Fatalf("record %d diverged", i)
			}
		}
		for i := range sks {
			compareSketch(t, &gotSks[i], &sks[i])
		}
	})
}

// goldenBatch builds a PMB1 batch from fixed inputs: one failed raw record,
// a sketch of a few dozen distinct buckets with a payload histogram, and one
// spread over more distinct buckets than a histogram keeps as runs.
func goldenBatch() []byte {
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("fd00::2")
	narrow, payload, wide := metrics.NewLatencyHistogram(), metrics.NewLatencyHistogram(), metrics.NewLatencyHistogram()
	for i := 0; i < 300; i++ {
		narrow.Observe(time.Duration(180+7*i) * time.Microsecond)
		if i%3 == 0 {
			payload.Observe(time.Duration(400+11*i) * time.Microsecond)
		}
	}
	for i := 0; i < 200; i++ {
		wide.Observe(time.Duration(50+i*i*i) * time.Microsecond)
	}
	recs := []Record{{Start: start, Src: src, SrcPort: 40000, Dst: dst, DstPort: 8765,
		Class: IntraDC, Proto: HTTP, QoS: QoSLow, PayloadLen: 64, RTT: 21 * time.Second, Err: "connect: timeout"}}
	sks := []PeerSketch{
		{Src: src, Dst: dst, DstPort: 8765, Class: IntraPod, PayloadLen: 64,
			MinStart: start, MaxStart: start.Add(9 * time.Minute), RTT: narrow, Payload: payload},
		{Src: dst, Dst: src, DstPort: 80, Class: InterDC, Proto: HTTP, QoS: QoSLow,
			MinStart: start.Add(time.Second), MaxStart: start.Add(time.Minute), RTT: wide},
	}
	return AppendBinaryBatch(nil, recs, sks)
}

const goldenBatchHex = "" +
	"504d42319205018080a8ad95d780be31040a000001c0b80210fd000000000000000000000000000002bd440101018001" +
	"80c894bb9c010010636f6e6e6563743a2074696d656f757402040a00000110fd000000000000000000000000000002bd" +
	"4400000080018080a8ad95d780be3180b088d4db0f35e0e2f3de02c0fc15d0bb95026b01010201010101010201020101" +
	"010201020102010201020102010301020103010201030103010401030103010401040104010401050104010501060105" +
	"01060106010601070107010701080108010801090109010a010a010b010b010c010d010d010d010f010f01072ce0fff6" +
	"c10180ea30f0d0bf037b0102010101020101010101020101010101010101010102010101010101010201010102010101" +
	"020102010201020102010201020103010201030103010301030103010301040104010301050104010401050105010501" +
	"0210fd000000000000000000000000000002040a000001500201010080a8fee69cd780be31809cb2e5db01860180948d" +
	"ca8617a08d06d0a4c9db3a51020301060108010801090108010701070106010601050105010401040104010401030104" +
	"010301030103010201030102010301020102010301020102010201020101010201020102010101020101010201010102" +
	"010101020101010101020101010101010101010201010101010101010101010101010101010101010101010101010101" +
	"010101010101010102010101010101010101020101010101020101010101020101010201010101010201010102010201" +
	"010102010201010102010201010102010201020102010201020102010201020102010201020102010301020102010201" +
	"03010201030102010301020103010301020103010301030103010301030103010301030103010200"

// TestBinaryBatchGoldenBytes pins the PMB1 wire bytes: the constant was taken
// before the run codec moved into internal/metrics and the histogram became
// self-compacting, and neither may change a byte agents and extents carry.
func TestBinaryBatchGoldenBytes(t *testing.T) {
	if got := hex.EncodeToString(goldenBatch()); got != goldenBatchHex {
		t.Fatalf("PMB1 batch bytes changed:\ngot  %s\nwant %s", got, goldenBatchHex)
	}
	recs, sks, errs := scanAllEntries(goldenBatch())
	if len(recs) != 1 || len(sks) != 2 || errs != 0 {
		t.Fatalf("golden batch decoded to %d records, %d sketches, %d errors", len(recs), len(sks), errs)
	}
}

// TestWindowIndex: windows start at whole multiples of their length since the
// Unix epoch — also before it — so ten minutes, hours and days begin where
// UTC's do.
func TestWindowIndex(t *testing.T) {
	day := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		t      time.Time
		window time.Duration
		want   int64
	}{
		{time.Unix(0, 0), Window, 0},
		{time.Unix(0, -1), Window, -1},
		{time.Unix(0, -int64(Window)), Window, -1},
		{time.Unix(0, -int64(Window)-1), Window, -2},
		{day, 24 * time.Hour, day.Unix() / 86400},
		{day.Add(-time.Nanosecond), 24 * time.Hour, day.Unix()/86400 - 1},
		{day.Add(9*time.Minute + 59*time.Second), Window, day.Unix() / 600},
		{day.Add(10 * time.Minute), Window, day.Unix()/600 + 1},
		{day.Add(59 * time.Minute).In(time.FixedZone("x", 5*3600+1800)), time.Hour, day.Unix() / 3600},
	} {
		if got := WindowIndex(c.t, c.window); got != c.want {
			t.Errorf("WindowIndex(%v, %v) = %d, want %d", c.t, c.window, got, c.want)
		}
	}
}
