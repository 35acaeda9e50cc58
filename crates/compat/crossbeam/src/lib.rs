//! Offline stand-in for the `crossbeam` facade crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the *subset* of the crossbeam API that `bib-parallel`
//! actually uses: multi-producer/single-consumer channels created with
//! [`channel::bounded`] (clonable senders, an iterable receiver), which
//! carry replicate results back to the caller in `bib-parallel`'s
//! executor.
//!
//! The implementation delegates to `std::sync::mpsc`, which provides
//! the same semantics for this usage pattern. Swapping in the real
//! crossbeam later only requires deleting this crate from the
//! workspace and pointing `[workspace.dependencies]` at the registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel {
    //! MPMC-style channels; see the crate docs for the supported subset.

    use std::sync::mpsc;
    use std::sync::{Arc, Mutex};

    /// Sending half of a channel. Clonable, like crossbeam's.
    pub struct Sender<T> {
        inner: mpsc::SyncSender<T>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    /// Error returned by [`Sender::send`] when the receiver has hung up.
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl<T> Sender<T> {
        /// Blocks until the message is delivered or the channel disconnects.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.inner
                .send(value)
                .map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    /// Receiving half of a channel.
    ///
    /// Unlike `std::sync::mpsc::Receiver`, crossbeam receivers are
    /// `Sync + Clone`; the `Arc<Mutex<_>>` wrapper preserves that
    /// contract for callers that share one receiver across scoped
    /// threads.
    pub struct Receiver<T> {
        inner: Arc<Mutex<mpsc::Receiver<T>>>,
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    /// Error returned by [`Receiver::recv`] when all senders are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner
                .lock()
                .expect("receiver mutex poisoned")
                .recv()
                .map_err(|_| RecvError)
        }

        /// Iterates over received messages until the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    /// Blocking iterator over a receiver; ends when all senders drop.
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> IntoIter<T> {
            IntoIter { rx: self }
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    /// Owning blocking iterator over a receiver.
    pub struct IntoIter<T> {
        rx: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    /// Creates a channel holding at most `cap` in-flight messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (
            Sender { inner: tx },
            Receiver {
                inner: Arc::new(Mutex::new(rx)),
            },
        )
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fan_in_from_clones() {
            let (tx, rx) = bounded::<usize>(64);
            std::thread::scope(|s| {
                for t in 0..4 {
                    let tx = tx.clone();
                    s.spawn(move || {
                        for i in 0..16 {
                            tx.send(t * 16 + i).unwrap();
                        }
                    });
                }
                drop(tx);
            });
            let mut got: Vec<usize> = rx.into_iter().collect();
            got.sort_unstable();
            assert_eq!(got, (0..64).collect::<Vec<_>>());
        }

        #[test]
        fn recv_err_after_disconnect() {
            let (tx, rx) = bounded::<u8>(1);
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
        }
    }
}
