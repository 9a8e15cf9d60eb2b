package cli

import (
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseInts(t *testing.T) {
	got, err := ParseInts("1, 2,4 ,8")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{1, 2, 4, 8}) {
		t.Errorf("ParseInts = %v", got)
	}
}

func TestParseIntsErrors(t *testing.T) {
	for _, s := range []string{"", "a", "1,,2", "0", "-3", "1,2,x"} {
		if _, err := ParseInts(s); err == nil {
			t.Errorf("ParseInts(%q) accepted", s)
		}
	}
}

func TestParseIntsRejectsNonPositive(t *testing.T) {
	for _, s := range []string{"0,4", "4,0", "1,-2,4"} {
		_, err := ParseInts(s)
		if err == nil {
			t.Fatalf("ParseInts(%q) accepted a non-positive sweep", s)
		}
		if !strings.Contains(err.Error(), "positive") {
			t.Errorf("ParseInts(%q) error %q does not name the positivity rule", s, err)
		}
	}
}

func TestParseIntsRejectsDuplicates(t *testing.T) {
	for _, s := range []string{"4,4", "1,2,4,2", "8, 8"} {
		_, err := ParseInts(s)
		if err == nil {
			t.Fatalf("ParseInts(%q) accepted a duplicate sweep", s)
		}
		if !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("ParseInts(%q) error %q does not name the duplicate", s, err)
		}
	}
}

func TestFlagsOptions(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.AddMachine(fs, "paragon")
	f.AddProcs(fs, "1,2,4")
	f.AddWorkers(fs)
	f.AddTrace(fs)
	if err := fs.Parse([]string{"-procs", "2,8", "-machine", "t3d", "-trace", "out.json"}); err != nil {
		t.Fatal(err)
	}
	opt, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Machine != "t3d" || !reflect.DeepEqual(opt.Procs, []int{2, 8}) || opt.TracePath != "out.json" {
		t.Errorf("Options = %+v", opt)
	}
}

func TestFlagsOptionsBadProcs(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.AddProcs(fs, "1,2")
	if err := fs.Parse([]string{"-procs", "0,4"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Options(); err == nil {
		t.Error("Options accepted -procs 0,4")
	}
}

func TestPowersOfTwo(t *testing.T) {
	if !PowersOfTwo([]int{1, 2, 4, 32}) {
		t.Error("valid powers rejected")
	}
	if PowersOfTwo([]int{1, 3}) || PowersOfTwo([]int{0}) {
		t.Error("non-powers accepted")
	}
	if !PowersOfTwo(nil) {
		t.Error("empty list rejected")
	}
}

func TestServeFlagsConfig(t *testing.T) {
	var f ServeFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.AddServe(fs)
	if err := fs.Parse([]string{"-filter", "haar", "-levels", "2", "-queue", "8", "-deadline", "250ms"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := f.ServeConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Bank == nil || cfg.Bank.Name != "haar" {
		t.Errorf("Bank = %v, want haar", cfg.Bank)
	}
	if cfg.Levels != 2 || cfg.QueueDepth != 8 {
		t.Errorf("cfg = %+v", cfg)
	}
	if f.Deadline != 250*time.Millisecond {
		t.Errorf("Deadline = %v", f.Deadline)
	}
}

func TestServeFlagsRejectBadValues(t *testing.T) {
	cases := [][]string{
		{"-filter", "nope"},
		{"-levels", "0"},
		{"-deadline", "-1s"},
	}
	for _, args := range cases {
		var f ServeFlags
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f.AddServe(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ServeConfig(); err == nil {
			t.Errorf("ServeConfig accepted %v", args)
		}
	}
}
