type t = { cores : int; memory : int; bandwidth : int }

(* Large enough that no real capacity reaches it, small enough that
   summing a whole grid's clusters cannot overflow 63-bit ints. *)
let unbounded_amount = max_int / 1024
let is_unbounded a = a >= unbounded_amount

let check_component name a =
  if a < 0 then invalid_arg (Printf.sprintf "Resource: negative %s (%d)" name a)

let zero = { cores = 0; memory = 0; bandwidth = 0 }

let make ?(cores = 0) ?(memory = 0) ?(bandwidth = 0) () =
  check_component "cores" cores;
  check_component "memory" memory;
  check_component "bandwidth" bandwidth;
  { cores; memory; bandwidth }

let of_cores cores =
  check_component "cores" cores;
  { zero with cores }

let cap ?(memory = unbounded_amount) ?(bandwidth = unbounded_amount) ~cores () =
  make ~cores ~memory ~bandwidth ()

let with_cores r cores =
  check_component "cores" cores;
  { r with cores }

let platform ?cap:c m = match c with None -> cap ~cores:m () | Some c -> with_cores c m

let clamp a = if is_unbounded a then unbounded_amount else a

let add a b =
  {
    cores = clamp (a.cores + b.cores);
    memory = clamp (a.memory + b.memory);
    bandwidth = clamp (a.bandwidth + b.bandwidth);
  }

let sub_component name a b =
  let d = a - b in
  check_component name d;
  d

let sub a b =
  {
    cores = sub_component "cores" a.cores b.cores;
    memory = sub_component "memory" a.memory b.memory;
    bandwidth = sub_component "bandwidth" a.bandwidth b.bandwidth;
  }

let scale n amount =
  check_component "scale factor" n;
  check_component "amount" amount;
  if is_unbounded amount then unbounded_amount
  else if n > 0 && amount > unbounded_amount / n then unbounded_amount
  else clamp (n * amount)

let fits req ~within =
  req.cores <= within.cores && req.memory <= within.memory && req.bandwidth <= within.bandwidth

let first_overflow req ~within =
  if req.cores > within.cores then Some ("cores", req.cores, within.cores)
  else if req.memory > within.memory then Some ("memory", req.memory, within.memory)
  else if req.bandwidth > within.bandwidth then Some ("bandwidth", req.bandwidth, within.bandwidth)
  else None

let equal a b = a.cores = b.cores && a.memory = b.memory && a.bandwidth = b.bandwidth
let components r = [ ("cores", r.cores); ("memory", r.memory); ("bandwidth", r.bandwidth) ]

let pp_amount ppf a =
  if is_unbounded a then Format.pp_print_string ppf "-" else Format.pp_print_int ppf a

let pp ppf r =
  Format.fprintf ppf "{cores=%a mem=%a bw=%a}" pp_amount r.cores pp_amount r.memory pp_amount
    r.bandwidth

let to_string r = Format.asprintf "%a" pp r
