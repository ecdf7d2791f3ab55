module SMap = Map.Make (String)

type 'a t = 'a SMap.t Atomic.t

let create () = Atomic.make SMap.empty

let find_or_add t key compute =
  match SMap.find_opt key (Atomic.get t) with
  | Some v -> v
  | None ->
    let v = compute () in
    let rec publish () =
      let m = Atomic.get t in
      match SMap.find_opt key m with
      | Some winner -> winner
      | None ->
        if Atomic.compare_and_set t m (SMap.add key v m) then v
        else publish ()
    in
    publish ()

let length t = SMap.cardinal (Atomic.get t)
