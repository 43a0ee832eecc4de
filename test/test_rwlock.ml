(* The middleware's readers-writer lock: the reader-preference contract
   of rwlock.mli, release on exceptions, and writer exclusion.  Every wait
   is bounded by a deadline, so a regression fails instead of hanging the
   suite; no test runs more than three threads. *)

module Rwlock = Tkr_middleware.Rwlock

let check = Alcotest.(check bool)

(* poll [p] until it holds or [timeout] seconds pass *)
let wait_until ?(timeout = 5.0) p =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    p ()
    || Unix.gettimeofday () < deadline
       && (Thread.delay 0.001;
           go ())
  in
  go ()

(* run [f] on a helper thread; true when it returns before the deadline *)
let finishes f =
  let done_ = Atomic.make false in
  ignore
    (Thread.create
       (fun () ->
         f ();
         Atomic.set done_ true)
       ());
  wait_until (fun () -> Atomic.get done_)

(* a thread holding the read side takes it again while a writer waits in
   [write_lock]; the writer gets in once both reads are released *)
let test_reader_preference () =
  let l = Rwlock.create () in
  let writer_waiting = Atomic.make false in
  let writer_in = Atomic.make false in
  let nested = Atomic.make false in
  let writer_seen_while_reading = Atomic.make false in
  let reading = Atomic.make false in
  let reader () =
    Rwlock.read_lock l;
    Atomic.set reading true;
    if wait_until (fun () -> Atomic.get writer_waiting) then begin
      (* give the writer time to block inside [write_lock] *)
      Thread.delay 0.05;
      Rwlock.read_lock l;
      Atomic.set nested true;
      Atomic.set writer_seen_while_reading (Atomic.get writer_in);
      Rwlock.read_unlock l
    end;
    Rwlock.read_unlock l
  in
  let writer () =
    ignore (wait_until (fun () -> Atomic.get reading));
    Atomic.set writer_waiting true;
    Rwlock.write_lock l;
    Atomic.set writer_in true;
    Rwlock.write_unlock l
  in
  ignore (Thread.create reader ());
  ignore (Thread.create writer ());
  check "nested read proceeds past a waiting writer" true
    (wait_until (fun () -> Atomic.get nested));
  check "writer stays out while reads are held" false
    (Atomic.get writer_seen_while_reading);
  check "writer gets in after both reads are released" true
    (wait_until (fun () -> Atomic.get writer_in))

(* [with_read] and [with_write] release the lock when the body raises *)
let test_brackets_release_on_raise () =
  let l = Rwlock.create () in
  (try Rwlock.with_read l (fun () -> failwith "read body")
   with Failure _ -> ());
  check "write_lock after a raising with_read" true
    (finishes (fun () ->
         Rwlock.write_lock l;
         Rwlock.write_unlock l));
  (try Rwlock.with_write l (fun () -> failwith "write body")
   with Failure _ -> ());
  check "write_lock after a raising with_write" true
    (finishes (fun () ->
         Rwlock.write_lock l;
         Rwlock.write_unlock l))

(* a writer holding the lock blocks readers until [write_unlock] *)
let test_writer_blocks_reader () =
  let l = Rwlock.create () in
  let reader_in = Atomic.make false in
  Rwlock.write_lock l;
  ignore
    (Thread.create
       (fun () ->
         Rwlock.with_read l (fun () -> Atomic.set reader_in true))
       ());
  Thread.delay 0.05;
  let blocked = not (Atomic.get reader_in) in
  Rwlock.write_unlock l;
  check "reader waits while the writer holds the lock" true blocked;
  check "reader gets in after write_unlock" true
    (wait_until (fun () -> Atomic.get reader_in))

let suite =
  ( "rwlock",
    [
      Alcotest.test_case "reader preference: nested read past a waiting writer"
        `Quick test_reader_preference;
      Alcotest.test_case "brackets release on exceptions" `Quick
        test_brackets_release_on_raise;
      Alcotest.test_case "writer blocks readers" `Quick
        test_writer_blocks_reader;
    ] )
