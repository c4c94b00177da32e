package pardis

import (
	"sync"
	"testing"
	"time"
)

// TestFacadeEndToEnd drives the complete public API surface the README
// advertises: naming service, SPMD export, collective bind, blocking and
// non-blocking invocations with distributed arguments, both transfer
// methods.
func TestFacadeEndToEnd(t *testing.T) {
	ns, err := NewNameServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	scaleDesc := OpDesc{Name: "scale", Args: []ArgDesc{{Name: "arr", Dir: InOut, Elem: "double"}}}
	const sRanks = 3
	serverW := NewWorld(sRanks)
	defer serverW.Close()
	objects := make([]*Object, sRanks)
	var objMu sync.Mutex
	serverDone := make(chan error, 1)
	ready := make(chan struct{})
	var once sync.Once
	go func() {
		serverDone <- serverW.Run(func(c *Comm) error {
			obj, err := Export(c, ExportOptions{
				TypeID:     "IDL:facade/test:1.0",
				Multiport:  true,
				Name:       "facade",
				NameServer: ns.Addr(),
			}, []Operation{{
				Desc: scaleDesc,
				NewArgs: func(comm *Comm) ([]Transferable, error) {
					s, err := NewSeq(comm, Float64, 0, nil)
					if err != nil {
						return nil, err
					}
					return []Transferable{s}, nil
				},
				Handler: func(call *ServerCall) error {
					f, err := call.In.ReadDouble()
					if err != nil {
						return err
					}
					arr := call.Args[0].(*Seq[float64])
					for i, v := range arr.LocalData() {
						arr.LocalData()[i] = v * f
					}
					return nil
				},
			}})
			if err != nil {
				once.Do(func() { close(ready) })
				return err
			}
			objMu.Lock()
			objects[c.Rank()] = obj
			objMu.Unlock()
			if c.Rank() == 0 {
				once.Do(func() { close(ready) })
			}
			return obj.Serve()
		})
	}()
	<-ready
	defer func() {
		objMu.Lock()
		for _, o := range objects {
			if o != nil {
				o.Close()
			}
		}
		objMu.Unlock()
		if err := <-serverDone; err != nil {
			t.Error(err)
		}
	}()

	clientW := NewWorld(2)
	defer clientW.Close()
	for _, method := range []Method{Centralized, Multiport} {
		method := method
		err := clientW.Run(func(c *Comm) error {
			b, err := SPMDBind(c, "facade", ns.Addr(), BindOptions{Method: method, Timeout: 20 * time.Second})
			if err != nil {
				return err
			}
			defer b.Close()
			arr, err := NewSeq(c, Float64, 512, Block{})
			if err != nil {
				return err
			}
			arr.FillFunc(func(g int) float64 { return 1 })
			e := ScalarEncoder()
			e.WriteDouble(2.5)
			if _, err := b.Invoke("scale", e.Bytes(), []DistArg{InOutSeq(arr)}); err != nil {
				return err
			}
			fut := b.InvokeNB("scale", e.Bytes(), []DistArg{InOutSeq(arr)})
			if _, err := fut.Wait(); err != nil {
				return err
			}
			v, err := arr.At(100)
			if err != nil {
				return err
			}
			if v != 6.25 {
				t.Errorf("%v: arr[100] = %v, want 6.25", method, v)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
	}
}

// TestFacadeIORRoundTrip checks the re-exported reference handling.
func TestFacadeIORRoundTrip(t *testing.T) {
	ns, err := NewNameServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	ref := ns.Ref()
	parsed, err := ParseIOR(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.TypeID != ref.TypeID {
		t.Fatalf("round trip lost type id: %q", parsed.TypeID)
	}
}
