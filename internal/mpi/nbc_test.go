package mpi

import (
	"bytes"
	"testing"
)

func TestIbarrier(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		runNative(t, n, func(c *Comm) {
			r := c.Ibarrier()
			r.Wait()
			// And again, twice outstanding work in sequence.
			c.Ibarrier().Wait()
		})
	})
}

func TestIbcast(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		runNative(t, n, func(c *Comm) {
			data := make([]byte, 16)
			if c.Rank() == 0 {
				for i := range data {
					data[i] = byte(i * 3)
				}
			}
			c.Ibcast(0, data).Wait()
			for i := range data {
				if data[i] != byte(i*3) {
					t.Errorf("byte %d = %d", i, data[i])
					return
				}
			}
		})
	})
}

func TestIallreduce(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		runNative(t, n, func(c *Comm) {
			r, out := c.Iallreduce(Float64Bytes([]float64{float64(c.Rank()) + 1}), Float64, OpSum)
			r.Wait()
			got := BytesFloat64(out)[0]
			if want := float64(n*(n+1)) / 2; got != want {
				t.Errorf("got %v want %v", got, want)
			}
		})
	})
}

func TestIallgather(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		runNative(t, n, func(c *Comm) {
			r, out := c.Iallgather([]byte{byte(c.Rank() + 1)})
			r.Wait()
			for i := 0; i < n; i++ {
				if out[i] != byte(i+1) {
					t.Errorf("block %d = %d", i, out[i])
				}
			}
		})
	})
}

func TestNBCOverlapsComputeAndP2P(t *testing.T) {
	// The point of non-blocking collectives: post, do unrelated work
	// (including point-to-point traffic), then complete.
	runNative(t, 4, func(c *Comm) {
		r, out := c.Iallreduce(Float64Bytes([]float64{1}), Float64, OpSum)
		// Unrelated p2p while the collective is outstanding.
		other := (c.Rank() + 1) % 4
		prev := (c.Rank() + 3) % 4
		rr := c.Irecv(prev, 77, make([]byte, 4))
		c.Send(other, 77, []byte{1, 2, 3, 4})
		rr.Wait()
		r.Wait()
		if got := BytesFloat64(out)[0]; got != 4 {
			t.Errorf("allreduce %v", got)
		}
	})
}

func TestTwoOutstandingNBCs(t *testing.T) {
	runNative(t, 4, func(c *Comm) {
		r1, o1 := c.Iallreduce(Float64Bytes([]float64{1}), Float64, OpSum)
		r2, o2 := c.Iallgather([]byte{byte(c.Rank())})
		// Complete in reverse posting order.
		r2.Wait()
		r1.Wait()
		if BytesFloat64(o1)[0] != 4 {
			t.Errorf("allreduce %v", BytesFloat64(o1))
		}
		if !bytes.Equal(o2, []byte{0, 1, 2, 3}) {
			t.Errorf("allgather %v", o2)
		}
	})
}

func TestNBCTestPolling(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		r := c.Ibarrier()
		for {
			if _, ok := r.Test(); ok {
				break
			}
		}
	})
}
