package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBytesHuman(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{100, "100 B"},
		{10 << 10, "10.0 KiB"},
		{5 << 20, "5.0 MiB"},
		{3 << 30, "3.0 GiB"},
	}
	for _, c := range cases {
		if got := bytesHuman(c.in); got != c.want {
			t.Errorf("bytesHuman(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

// The bytes datagen writes for each kind are pinned, so a faster
// generator or encoder that moves one byte fails here.
func TestPinnedFileDigests(t *testing.T) {
	for kind, want := range map[string]string{
		"movies": "6dd64746a4bcf22f05d884208d8b0d2f6c0a95adf534a00f5afa327e436d6eb4",
		"events": "22c0698896288bd25ac2df051e7b0fd308d7e45851149fb61c852c8cab7dce23",
		"weblog": "8a60becbc30e65b72624b2d0cf78c3917bddcf2cc5a09ecc13f506a9a8ef3a91",
	} {
		out := filepath.Join(t.TempDir(), kind+".dnr")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-type", kind, "-records", "20000", "-movies", "60", "-out", out, "-q"}, &stdout, &stderr); code != 0 {
			t.Fatalf("datagen -type %s exited %d: %s", kind, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("datagen -q printed %q", stdout.String())
		}
		blob, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != want {
			t.Errorf("datagen -type %s: sha256 %s, want %s", kind, got, want)
		}
	}
}

// Without -q the summary names the file; a kind no generator knows and
// an unwritable path fail with their exit codes.
func TestRunExitCodes(t *testing.T) {
	out := filepath.Join(t.TempDir(), "small.dnr")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-records", "50", "-movies", "5", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("datagen exited %d: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "wrote 50 records (") || !strings.Contains(stdout.String(), out) {
		t.Errorf("summary = %q", stdout.String())
	}
	if code := run([]string{"-type", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("-type nope exited %d, want 2", code)
	}
	if code := run([]string{"-records", "5", "-out", filepath.Join(t.TempDir(), "no", "such", "dir.dnr")}, &stdout, &stderr); code != 1 {
		t.Errorf("an unwritable -out exited %d, want 1", code)
	}
}
