//! Round-robin arbitration, as used by the AMBA AHB bus arbiter.

use crate::codec::{DecodeError, Decoder, Encoder};

/// A round-robin arbiter over a fixed set of requesters.
///
/// The arbiter remembers which requester was granted last and, when several
/// requesters compete, grants the next one in cyclic order. This is the
/// arbitration policy the paper configures for the AMBA AHB interconnect.
///
/// # Example
///
/// ```
/// use ssdx_sim::RoundRobinArbiter;
/// let mut arb = RoundRobinArbiter::new(4);
/// assert_eq!(arb.grant(&[true, true, false, true]), Some(0));
/// assert_eq!(arb.grant(&[true, true, false, true]), Some(1));
/// assert_eq!(arb.grant(&[true, true, false, true]), Some(3));
/// assert_eq!(arb.grant(&[true, true, false, true]), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobinArbiter {
    ports: usize,
    last_granted: Option<usize>,
    grants: u64,
}

impl RoundRobinArbiter {
    /// Creates an arbiter for `ports` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0, "an arbiter needs at least one port");
        RoundRobinArbiter {
            ports,
            last_granted: None,
            grants: 0,
        }
    }

    /// Number of requester ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Total number of grants issued.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// The port granted most recently, if any.
    pub fn last_granted(&self) -> Option<usize> {
        self.last_granted
    }

    /// Grants the bus to one of the requesting ports (`requests[i] == true`),
    /// starting the search just after the previously granted port.
    ///
    /// Returns `None` if nobody is requesting.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len()` differs from the number of ports.
    pub fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        assert_eq!(
            requests.len(),
            self.ports,
            "request vector length must match port count"
        );
        let start = match self.last_granted {
            Some(p) => (p + 1) % self.ports,
            None => 0,
        };
        for offset in 0..self.ports {
            let port = (start + offset) % self.ports;
            if requests[port] {
                self.last_granted = Some(port);
                self.grants += 1;
                return Some(port);
            }
        }
        None
    }

    /// Grants among a list of requesting port indices (convenience wrapper
    /// around [`grant`](Self::grant)).
    ///
    /// The empty and single-requester cases — the latter is what a bus model
    /// issues once per transfer on the simulation hot path — are resolved
    /// without materialising a request vector, so they perform no heap
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn grant_among(&mut self, requesting: &[usize]) -> Option<usize> {
        for &p in requesting {
            assert!(p < self.ports, "port index {p} out of range");
        }
        match *requesting {
            [] => None,
            // A sole requester always wins, whatever the rotation state —
            // identical outcome to running the full search.
            [port] => {
                self.last_granted = Some(port);
                self.grants += 1;
                Some(port)
            }
            _ => {
                let mut requests = vec![false; self.ports];
                for &p in requesting {
                    requests[p] = true;
                }
                self.grant(&requests)
            }
        }
    }

    /// Clears arbitration history.
    pub fn reset(&mut self) {
        self.last_granted = None;
        self.grants = 0;
    }

    /// Encodes the mutable state, in stable field order: `last_granted`
    /// (presence flag + port), `grants`. The port count is a construction
    /// parameter and not snapshot state.
    pub fn encode_state(&self, enc: &mut Encoder) {
        match self.last_granted {
            Some(port) => {
                enc.put_bool(true);
                enc.put_u64(port as u64);
            }
            None => enc.put_bool(false),
        }
        enc.put_u64(self.grants);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input or a port index outside
    /// this arbiter's range.
    pub fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.last_granted = if dec.get_bool()? {
            let offset = dec.position();
            let port = dec.get_u64()? as usize;
            if port >= self.ports {
                return Err(DecodeError::Invalid {
                    offset,
                    what: "arbiter port index",
                });
            }
            Some(port)
        } else {
            None
        };
        self.grants = dec.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_requester_always_wins() {
        let mut arb = RoundRobinArbiter::new(3);
        for _ in 0..10 {
            assert_eq!(arb.grant(&[false, true, false]), Some(1));
        }
        assert_eq!(arb.grants(), 10);
    }

    #[test]
    fn no_request_yields_none() {
        let mut arb = RoundRobinArbiter::new(2);
        assert_eq!(arb.grant(&[false, false]), None);
        assert_eq!(arb.grants(), 0);
    }

    #[test]
    fn grants_rotate_fairly_under_full_load() {
        let mut arb = RoundRobinArbiter::new(4);
        let mut counts = [0u32; 4];
        for _ in 0..400 {
            let g = arb.grant(&[true; 4]).unwrap();
            counts[g] += 1;
        }
        assert_eq!(counts, [100, 100, 100, 100]);
    }

    #[test]
    fn grant_among_matches_grant() {
        let mut a = RoundRobinArbiter::new(4);
        let mut b = RoundRobinArbiter::new(4);
        assert_eq!(a.grant(&[true, false, true, false]), b.grant_among(&[0, 2]));
        assert_eq!(a.grant(&[true, false, true, false]), b.grant_among(&[0, 2]));
    }

    #[test]
    fn reset_restores_initial_priority() {
        let mut arb = RoundRobinArbiter::new(2);
        arb.grant(&[true, true]);
        arb.reset();
        assert_eq!(arb.last_granted(), None);
        assert_eq!(arb.grant(&[true, true]), Some(0));
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_rejected() {
        let _ = RoundRobinArbiter::new(0);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn mismatched_request_vector_rejected() {
        let mut arb = RoundRobinArbiter::new(2);
        let _ = arb.grant(&[true]);
    }
}
