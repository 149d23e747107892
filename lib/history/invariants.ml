open Regemu_objects
open Regemu_sim

type violation = { at : int; client : Id.Client.t; detail : string }

let violation_pp ppf v =
  Fmt.pf ppf "at t=%d, client %a: %s" v.at Id.Client.pp v.client v.detail

(* [a] itself when index [i] fits, else a copy grown to hold it with
   room to spare *)
let grow a i fill =
  if i < Array.length a then a
  else begin
    let b = Array.make (max (2 * Array.length a) (i + 8)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

module Monitor = struct
  type t = {
    f : int;
    mutable seen : int;  (* entries observed: the time of the last one *)
    mutable pending : int array array;
        (* pending low-level writes, per client and object *)
    mutable single : (unit, violation) result;
    mutable at_return : (unit, violation) result;
  }

  let create ~f =
    { f; seen = 0; pending = [||]; single = Ok (); at_return = Ok () }

  (* add [d] to the pending writes of [client] on [obj]; returns the new
     count.  A respond carries its trigger's client and object, so no
     per-lop table is needed. *)
  let[@inline] bump m client obj d =
    let c = Id.Client.to_int client and o = Id.Obj.to_int obj in
    if c >= Array.length m.pending then m.pending <- grow m.pending c [||];
    let r = m.pending.(c) in
    let r =
      if o < Array.length r then r
      else begin
        let r = grow r o 0 in
        m.pending.(c) <- r;
        r
      end
    in
    r.(o) <- r.(o) + d;
    r.(o)

  (* write returns are rare: summing the row is cheaper than keeping a
     per-client count on every trigger and respond *)
  let pending_writes m client =
    let c = Id.Client.to_int client in
    let n = ref 0 in
    if c < Array.length m.pending then begin
      let r = m.pending.(c) in
      for o = 0 to Array.length r - 1 do
        n := !n + r.(o)
      done
    end;
    !n

  let observe m tr =
    let stop = Trace.time tr in
    for i = m.seen to stop - 1 do
      (* entry [i] is the trace's [i + 1]-th *)
      match Trace.get tr i with
      | Trace.Trigger { client; obj; op = Base_object.Write _; _ } ->
          (* counts grow only here, so the first count above one is on
             the key this entry just incremented *)
          let n = bump m client obj 1 in
          if n > 1 && Result.is_ok m.single then
            m.single <-
              Error
                {
                  at = i + 1;
                  client;
                  detail =
                    Fmt.str "%d of its writes pending on %a simultaneously" n
                      Id.Obj.pp obj;
                }
      | Trace.Respond { client; obj; op = Base_object.Write _; _ } ->
          ignore (bump m client obj (-1))
      | Trace.Return (client, Trace.H_write _, _) ->
          let n = pending_writes m client in
          if n > m.f && Result.is_ok m.at_return then
            m.at_return <-
              Error
                {
                  at = i + 1;
                  client;
                  detail =
                    Fmt.str
                      "write returned with %d of its low-level writes \
                       pending (> f = %d)"
                      n m.f;
                }
      | _ -> ()
    done;
    m.seen <- stop

  let single_pending m = m.single
  let pending_at_return m = m.at_return
end

let fold tr ~f verdict =
  let m = Monitor.create ~f in
  Monitor.observe m tr;
  verdict m

let single_pending_write_per_writer_register tr =
  fold tr ~f:max_int Monitor.single_pending

let max_pending_writes_at_return tr ~f =
  fold tr ~f Monitor.pending_at_return
