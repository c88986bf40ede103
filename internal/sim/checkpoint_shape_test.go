package sim

// The checkpoint-shape pin: every distinct key path a checkpoint envelope
// carries, listed in first-seen order with array indices collapsed, is
// pinned to testdata/checkpoint_shape.txt together with the format it was
// taken at. A renamed JSON key, a reordered field or a new omitempty then
// fails tier-1 unless CheckpointFormat moves with it. Key paths do not
// depend on float bits, so the pin holds on every platform. After an
// intentional format change, regenerate with:
//
//	go test ./internal/sim -run TestCheckpointShape -update

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

const checkpointShapePath = "testdata/checkpoint_shape.txt"

// TestCheckpointShape checkpoints the six-node chaos run under BAAT after
// one day, so the fault injector, the policy state and the day history are
// all present, and compares the envelope's key paths with the pinned list.
func TestCheckpointShape(t *testing.T) {
	s := goldenSim(t, faultedMutate(t))
	if _, err := s.RunDay(goldenWeather()[0]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	paths, err := checkpointShape(&buf)
	if err != nil {
		t.Fatal(err)
	}
	header := fmt.Sprintf("format %d", CheckpointFormat)
	got := header + "\n" + strings.Join(paths, "\n") + "\n"
	if *update {
		if err := os.WriteFile(checkpointShapePath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(checkpointShapePath)
	if err != nil {
		t.Fatalf("missing checkpoint shape (run with -update to create): %v", err)
	}
	if string(b) == got {
		return
	}
	pinned := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if pinned[0] != header {
		t.Fatalf("%s pins %q but CheckpointFormat is %d: regenerate it with -update",
			checkpointShapePath, pinned[0], CheckpointFormat)
	}
	var added, removed []string
	for _, p := range paths {
		if !slices.Contains(pinned[1:], p) {
			added = append(added, p)
		}
	}
	for _, p := range pinned[1:] {
		if !slices.Contains(paths, p) {
			removed = append(removed, p)
		}
	}
	t.Fatalf("checkpoint shape changed: bump CheckpointFormat (added %q, removed %q, or the order moved)",
		added, removed)
}

// checkpointShape walks a JSON document token by token and returns each
// distinct key path in first-seen order: object keys join with ".", and
// every array element shares its array's path plus "[]" (for example
// state.nodes[].pack.soc).
func checkpointShape(r io.Reader) ([]string, error) {
	dec := json.NewDecoder(r)
	var paths []string
	seen := make(map[string]bool)
	var walk func(path string) error
	walk = func(path string) error {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch tok {
		case json.Delim('{'):
			for dec.More() {
				k, err := dec.Token()
				if err != nil {
					return err
				}
				p := k.(string)
				if path != "" {
					p = path + "." + p
				}
				if !seen[p] {
					seen[p] = true
					paths = append(paths, p)
				}
				if err := walk(p); err != nil {
					return err
				}
			}
		case json.Delim('['):
			for dec.More() {
				if err := walk(path + "[]"); err != nil {
					return err
				}
			}
		default:
			return nil
		}
		_, err = dec.Token() // the closing delimiter
		return err
	}
	return paths, walk("")
}
