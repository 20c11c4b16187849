//! Stress test of the disconnect wakeup in the worker pool's channel.
//!
//! `Executor::run` hands cells to workers over a `crossbeam` channel and
//! learns that every worker is done when the result channel disconnects.
//! A receiver that misses the last sender's wakeup therefore blocks a
//! sweep forever. The last sender must take the queue lock before it
//! notifies: a receiver that has just read a nonzero sender count is
//! then guaranteed to be waiting, not between its check and its wait.

use std::sync::mpsc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvError, Sender};

/// Many short-lived senders dropping while a receiver blocks: every
/// `recv` must see the disconnect. The receiver runs on a helper thread
/// and each round's result is awaited under a timeout, so a lost wakeup
/// fails the test instead of hanging it. The dropping thread first spins
/// a varying few hundred iterations, sliding the final drop across the
/// receiver's check-then-wait window.
#[test]
fn last_sender_drop_always_wakes_a_blocked_receiver() {
    let (to_receiver, receivers) = mpsc::channel::<Receiver<u8>>();
    let (to_dropper, senders) = mpsc::channel::<(Vec<Sender<u8>>, u32)>();
    let (report, results) = mpsc::channel();
    std::thread::spawn(move || {
        for rx in receivers {
            let _ = report.send(rx.recv());
        }
    });
    std::thread::spawn(move || {
        for (batch, spin) in senders {
            for _ in 0..spin {
                std::hint::spin_loop();
            }
            drop(batch);
        }
    });
    for round in 0..100_000u32 {
        let (tx, rx) = unbounded::<u8>();
        let batch = vec![tx.clone(), tx.clone(), tx];
        to_receiver.send(rx).unwrap();
        to_dropper.send((batch, (round % 97) * 4)).unwrap();
        match results.recv_timeout(Duration::from_secs(10)) {
            Ok(result) => assert_eq!(result, Err(RecvError), "round {round}"),
            Err(_) => panic!("round {round}: the receiver missed the disconnect"),
        }
    }
}
