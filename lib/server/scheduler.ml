(* write-batch admission ----------------------------------------------- *)

(* The group-commit admission queue: writers [submit] work items as
   they arrive; a single flusher thread blocks in [drain] and is handed
   the accumulated batch when it reaches [max] items or [window_us]
   microseconds have passed since the batch's *first* enqueue —
   whichever comes first, so a lone writer waits at most the window and
   a burst never waits at all.  While a drained batch is being
   committed, the next one accumulates behind it: under load the
   window hardly matters and batches form by natural accumulation.

   While the queue is empty the flusher parks on the condition
   variable and costs nothing; once a batch is pending it yields
   between length checks and flushes as soon as the queue stops
   growing (see [drain]). *)
module Batch = struct
  type 'a t = {
    m : Mutex.t;
    nonempty : Condition.t;
    q : 'a Queue.t;
    max : int;
    window_s : float;
    mutable first_enqueue : float;
    mutable closed : bool;
  }

  let create ~max ~window_us =
    if max < 1 then invalid_arg "Scheduler.Batch.create: max < 1";
    if window_us < 0 then invalid_arg "Scheduler.Batch.create: window_us < 0";
    {
      m = Mutex.create ();
      nonempty = Condition.create ();
      q = Queue.create ();
      max;
      window_s = float_of_int window_us /. 1e6;
      first_enqueue = 0.;
      closed = false;
    }

  let submit t x =
    Mutex.lock t.m;
    let accepted = not t.closed in
    if accepted then begin
      if Queue.is_empty t.q then t.first_enqueue <- Unix.gettimeofday ();
      Queue.push x t.q;
      Condition.signal t.nonempty
    end;
    Mutex.unlock t.m;
    accepted

  (* Take at most [max] items: the queue can overshoot the cap while
     [drain] is off the mutex in its gather loop, and an oversized
     batch would hold the repository lock (and every parked submitter)
     for longer than the cap promises.  Leftovers restart
     the window at the take, so the next [drain] still runs its gather
     loop — the yields there are what let submitter threads (one
     runtime lock!) refill the queue while a batch is due; flushing
     leftovers ungathered would starve the producers into a trickle
     of undersized batches. *)
  let take_up_to t n =
    let rec go acc k =
      if k = 0 || Queue.is_empty t.q then List.rev acc
      else go (Queue.pop t.q :: acc) (k - 1)
    in
    let xs = go [] n in
    if not (Queue.is_empty t.q) then t.first_enqueue <- Unix.gettimeofday ();
    xs

  let drain t =
    Mutex.lock t.m;
    while Queue.is_empty t.q && not t.closed do
      Condition.wait t.nonempty t.m
    done;
    if Queue.is_empty t.q then begin
      (* closed and drained *)
      Mutex.unlock t.m;
      []
    end
    else begin
      (* Gather phase: submitter threads only make progress while this
         thread is off the OCaml runtime lock, so poll-sleeping out the
         whole window would just add dead time to every commit.
         Instead, yield and flush as soon as the queue stops growing —
         pipelined submitters extend the batch across the yields, a
         lone blocking writer flushes immediately, and anything that
         arrives during the previous batch's fsync (which releases the
         runtime lock) forms the next batch.  [max] and the window stay
         as hard bounds. *)
      let rec gather stable_len =
        if
          Queue.length t.q >= t.max
          || t.closed
          || Unix.gettimeofday () -. t.first_enqueue >= t.window_s
        then ()
        else begin
          Mutex.unlock t.m;
          Thread.yield ();
          Mutex.lock t.m;
          let len = Queue.length t.q in
          if len > stable_len then gather len
        end
      in
      gather (Queue.length t.q);
      let xs = take_up_to t t.max in
      Mutex.unlock t.m;
      xs
    end

  let close t =
    Mutex.lock t.m;
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.m
end
