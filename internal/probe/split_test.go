package probe

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// scanned is everything a scan yields: one byte per entry in order ('r' a
// record, 'e' a row error, 's' a sketch), the records and the sketches.
type scanned struct {
	kinds []byte
	recs  []Record
	sks   []Sketch
}

func (s *scanned) scan(data []byte) {
	var sc Scanner
	sc.Reset(data)
	for {
		switch sc.ScanEntry() {
		case EntryEOF:
			return
		case EntrySketch:
			s.kinds = append(s.kinds, 's')
			sk := *sc.Sketch()
			sk.RTT, sk.Payload = sk.RTT.Clone(), sk.Payload.Clone()
			s.sks = append(s.sks, sk)
		default:
			if sc.RowErr() != nil {
				s.kinds = append(s.kinds, 'e')
				continue
			}
			s.kinds = append(s.kinds, 'r')
			s.recs = append(s.recs, *sc.Record())
		}
	}
}

// mixedExtent concatenates n upload batches, CSV documents and PMB1 batches
// in random alternation, as a cosmos extent does.
func mixedExtent(rng *rand.Rand, n int) []byte {
	var data []byte
	for i := 0; i < n; i++ {
		recs := make([]Record, rng.Intn(5))
		for j := range recs {
			recs[j] = randomRecord(rng)
		}
		if rng.Intn(2) == 0 {
			data = AppendBatch(data, recs)
			continue
		}
		sks := make([]PeerSketch, rng.Intn(4))
		for j := range sks {
			sks[j] = randomSketch(rng)
		}
		data = AppendBinaryBatch(data, recs, sks)
	}
	return data
}

// FuzzSplitBatches pins the split law at batch granularity: for any input
// and any chunk size, the chunks concatenate to the input, every chunk but
// the last is at least size bytes, and scanning chunk by chunk yields the
// same entry sequence, records, sketches and row errors as scanning the
// whole — including input whose framing is corrupt, where the splitter must
// stop splitting exactly where the Scanner stops resynchronizing.
func FuzzSplitBatches(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	r := sampleRecord()
	csv := EncodeBatch([]Record{r, r})
	pmb := AppendBinaryBatch(nil, []Record{randomRecord(rng)}, []PeerSketch{randomSketch(rng), randomSketch(rng)})
	seeds := [][]byte{
		// The seeds of FuzzScannerVsDecodeBatch and FuzzBinaryCodecRoundTrip.
		csv,
		[]byte(CSVHeader + "\r\n" + r.MarshalCSV() + "\r\n"),
		[]byte("garbage\n" + CSVHeader + "\n" + r.MarshalCSV()),
		[]byte("\n\r\n,\n1,2,3\n"),
		pmb,
		AppendBinaryBatch(nil, nil, nil),
		[]byte(binaryMagic),
		[]byte(binaryMagic + "\x02\x00\x00garbage"),
		[]byte("csv,line\n" + binaryMagic + "\x05\x01"),
		sketchBatchWithRuns(5, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1),
		// CSV, then PMB1, then CSV again; a batch straight after an
		// unterminated line is not at top level.
		bytes.Join([][]byte{csv, pmb, csv}, nil),
		append([]byte(r.MarshalCSV()), pmb...),
		// A header that cannot be trusted in the middle: no boundary past it.
		bytes.Join([][]byte{pmb, []byte(binaryMagic + "\xff"), pmb, csv}, nil),
		// A trusted length over a garbage payload: the next batch still splits off.
		bytes.Join([][]byte{pmb, append([]byte(binaryMagic+"\x14"), bytes.Repeat([]byte{0xff}, 20)...), pmb}, nil),
	}
	for i := 0; i < 4; i++ {
		ext := mixedExtent(rng, 12)
		flipped := bytes.Clone(ext)
		flipped[rng.Intn(len(flipped))] ^= 1 << rng.Intn(8)
		seeds = append(seeds, ext, ext[:rng.Intn(len(ext))], flipped)
	}
	for _, seed := range seeds {
		for _, size := range []uint16{1, 64, 4096} {
			f.Add(seed, size)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, size uint16) {
		var whole, parts scanned
		whole.scan(data)
		var joined []byte
		for rest := data; len(rest) > 0; {
			var chunk []byte
			chunk, rest = SplitBatches(rest, int(size))
			if len(chunk) == 0 || (len(rest) > 0 && len(chunk) < int(size)) {
				t.Fatalf("chunk of %d bytes at size %d with %d bytes left", len(chunk), size, len(rest))
			}
			joined = append(joined, chunk...)
			parts.scan(chunk)
		}
		if !bytes.Equal(joined, data) {
			t.Fatalf("chunks concatenate to %d bytes, input has %d", len(joined), len(data))
		}
		if !bytes.Equal(whole.kinds, parts.kinds) {
			t.Fatalf("entry sequence diverged at size %d:\nwhole  %s\nchunks %s", size, whole.kinds, parts.kinds)
		}
		if !reflect.DeepEqual(whole, parts) {
			t.Fatalf("records or sketches diverged at size %d", size)
		}
	})
}

// TestSplitBatchesWholeBatches: a chunk never ends inside a batch, and a
// size past the input leaves it whole.
func TestSplitBatchesWholeBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var batches [][]byte
	for i := 0; i < 6; i++ {
		batches = append(batches, mixedExtent(rng, 1))
	}
	data := bytes.Join(batches, nil)
	if chunk, rest := SplitBatches(data, len(data)+1); len(chunk) != len(data) || len(rest) != 0 {
		t.Fatalf("size past the input split %d+%d bytes", len(chunk), len(rest))
	}
	// Every PMB1 batch is one step; a CSV document is one step per line.
	for rest := data; len(rest) > 0; {
		var chunk []byte
		chunk, rest = SplitBatches(rest, 1)
		if hasBinaryMagic(chunk) {
			if _, plen, ok := batchPayload(chunk, 0); !ok || plen == 0 || len(chunk) > len(binaryMagic)+10+plen {
				t.Fatalf("binary chunk of %d bytes is not one whole batch", len(chunk))
			}
		} else if bytes.Count(chunk, []byte{'\n'}) != 1 || chunk[len(chunk)-1] != '\n' {
			t.Fatalf("CSV chunk %q is not one line", chunk)
		}
	}
}
