type span_id = int

type probe = {
  enter : string -> span_id;
  leave : span_id -> unit;
  count : string -> int -> unit;
  value : string -> int -> unit;
}

let null =
  {
    enter = (fun _ -> 0);
    leave = (fun _ -> ());
    count = (fun _ _ -> ());
    value = (fun _ _ -> ());
  }

let probe = ref null

let set_probe p = probe := p
let clear_probe () = probe := null

(* Physical equality: installing a structurally-null probe still
   counts as enabled, which is what a recording probe wants. *)
let enabled () = !probe != null

let span name f =
  let p = !probe in
  if p == null then f ()
  else begin
    let id = p.enter name in
    match f () with
    | v ->
      p.leave id;
      v
    | exception e ->
      p.leave id;
      raise e
  end

let count name n =
  let p = !probe in
  if p != null then p.count name n

let value name v =
  let p = !probe in
  if p != null then p.value name v
